// Package core implements GNN-RDM, the paper's primary contribution:
// distributed GCN training built on communication-free SpMM and GEMM with
// redistribution of dense matrices between stages (§III), supporting
// every SpMM-first/GEMM-first ordering configuration of Table IV,
// forward-intermediate memoization (§III-C), row-panel adjacency
// replication R_A (§III-E), and model-driven configuration selection
// (§IV-B).
//
// The engine is SPMD: one Engine per simulated device, all executing the
// same sequence of collective operations on the comm fabric. Dense
// activations live in dist.Mat layouts; the adjacency matrix is held as a
// per-device row panel replicated R_A times across the grid of §III-E
// (R_A = P is full replication, the main RDM scheme; R_A = 1 degenerates
// to CAGNET's 1D scheme).
package core

import (
	"fmt"
	"math/rand"
	"os"
	"sync"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/nn"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// Problem is the training task: a normalized propagation matrix, input
// features, labels, and an optional training mask. With the default GCN
// normalization D^{-1/2}(A+I)D^{-1/2} of an undirected graph the
// operator is symmetric and A serves both passes; for asymmetric
// operators set ATranspose.
type Problem struct {
	A         *sparse.CSR
	X         *tensor.Dense
	Labels    []int32
	TrainMask []bool
	// LossWeights optionally weights each vertex's loss term
	// (GraphSAINT's λ_v normalization); nil means uniform.
	LossWeights []float32
	// ATranspose holds Aᵀ for asymmetric propagation operators (directed
	// graphs, random-walk normalization D⁻¹(A+I)). The forward pass
	// aggregates with Aᵀ (eq. 1) and the backward pass with A (eq. 3).
	// Leave nil for symmetric operators (GCN normalization), where
	// Aᵀ = A.
	ATranspose *sparse.CSR
}

// fwdOperator returns the forward-aggregation matrix (Aᵀ).
func (p *Problem) fwdOperator() *sparse.CSR {
	if p.ATranspose != nil {
		return p.ATranspose
	}
	return p.A
}

// N returns the vertex count.
func (p *Problem) N() int { return p.A.Rows }

// Options configures an RDM training run.
type Options struct {
	// Dims is f_0..f_L; Dims[0] must equal the feature width.
	Dims []int
	// Config is the SpMM/GEMM ordering (Table IV). Zero value = all
	// SpMM-first.
	Config costmodel.Config
	// RA is the adjacency replication factor (§III-E); 0 means P (full
	// replication, the main RDM scheme). Must divide P.
	RA int
	// Memoize keeps the forward AᵀH^{l-1} products for backward reuse
	// (§III-C). Disabling it is the paper's "N.M." ablation.
	Memoize bool
	// ComputeInputGrad computes G^0, the gradient of the input features
	// (a final output in Fig. 4, included in Table IV's accounting).
	ComputeInputGrad bool
	// LR is the Adam learning rate.
	LR float64
	// Seed controls weight initialization (identical on all devices).
	Seed int64
	// EvalMask, when set, selects the vertices whose prediction accuracy
	// is computed after every epoch (EpochStats.EvalAcc) — the paper's
	// test-accuracy-versus-time instrumentation (Fig. 13).
	EvalMask []bool
	// MaskProvider, when set, turns every aggregation into a masked SpMM
	// over sampled neighbors (§III-F's non-subgraph sampling): given the
	// epoch and a global row range it returns, per row, the permitted
	// column indices (sorted; nil keeps all). Deterministic per-row
	// generation from a shared seed means replicas of a row panel agree
	// without communicating the mask — the paper's shared-seed trick.
	MaskProvider func(epoch, rowLo, rowHi int) [][]int32
	// SAGE switches every layer to the two-weight GraphSAGE form
	// Z^l = AᵀH^{l-1}W_n + H^{l-1}W_s (the paper lists GraphSAGE among
	// the GNN variants RDM applies to). The self term is computed in the
	// vertex-sliced layout and redistributed when the layer's SpMM-side
	// output is feature-sliced.
	SAGE bool
	// Topology, when non-nil, runs the fabric on a hierarchical
	// interconnect (see internal/topo): collectives are routed and
	// priced by topology-aware algorithms and metered per link tier.
	// Nil keeps the flat pre-topology fabric, bit-for-bit. Must cover at
	// least P devices.
	Topology *topo.Topology
	// Tracer, when non-nil, records every kernel, collective, and phase
	// of the run into one trace session (see internal/trace). Train
	// attaches it to the fabric before the devices start.
	Tracer *trace.Tracer
	// TraceLabel names the trace session (default "rdm").
	TraceLabel string
	// Overlap switches Epoch to the dependency-DAG executor
	// (overlap.go): ready ops dispatch concurrently over per-resource
	// device lanes, so a GEMM can run while the NIC drains an
	// all-reduce. Numerics, byte meters, and trace-event inventories are
	// identical to the sequential interpreter — only clocks change
	// (verify.CheckOverlapEquivalence pins all three). Forward-only
	// paths (Forward, RunInference) always run sequentially. The
	// GNNRDM_OVERLAP=1 environment variable forces this on, for CI.
	Overlap bool
	// PinExecutor makes Overlap authoritative, ignoring the
	// GNNRDM_OVERLAP override. Differential harnesses set it so their
	// sequential reference leg stays sequential even when CI forces the
	// overlap executor on everywhere else.
	PinExecutor bool
	// Live declares the feature matrix row-sparse with this many live
	// (nonzero) rows: the compiler marks the redistributions whose
	// operands inherit X's row support, and the executor runs them
	// through the two-round sparse exchange (dist.RedistributeSparse)
	// over the live set scanned from the actual features. 0 (or >= N)
	// means dense. The planner's live set is dist.GenRows(SparseSeed, N,
	// Live); feed features generated from the same identity when
	// meter-equals-model matters (verify.CheckSparseMatchesModel).
	Live int
	// SparseSeed selects the planner's assumed live row set (see Live).
	SparseSeed int64
}

// overlapEnv reads the GNNRDM_OVERLAP force flag once per process.
var overlapEnv = sync.OnceValue(func() bool { return os.Getenv("GNNRDM_OVERLAP") == "1" })

// Layers returns L.
func (o Options) Layers() int { return len(o.Dims) - 1 }

func (o Options) withDefaults(p int) Options {
	if o.RA == 0 {
		o.RA = p
	}
	if len(o.Config.Fwd) == 0 {
		o.Config = costmodel.ConfigFromID(0, o.Layers())
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	if overlapEnv() && !o.PinExecutor {
		o.Overlap = true
	}
	return o
}

func (o Options) validate(p int, prob *Problem) {
	if len(o.Dims) < 2 {
		panic("core: need at least one layer")
	}
	if o.Dims[0] != prob.X.Cols {
		panic(fmt.Sprintf("core: Dims[0]=%d != feature width %d", o.Dims[0], prob.X.Cols))
	}
	if o.Config.Layers() != o.Layers() {
		panic("core: config layer count mismatch")
	}
	if o.RA < 1 || o.RA > p || p%o.RA != 0 {
		panic(fmt.Sprintf("core: RA=%d invalid for P=%d", o.RA, p))
	}
	if prob.A.Rows != prob.A.Cols || prob.A.Rows != prob.X.Rows {
		panic("core: adjacency/features shape mismatch")
	}
	if len(prob.Labels) != prob.X.Rows {
		panic("core: labels length mismatch")
	}
}

// Engine is one device's view of an RDM training run.
type Engine struct {
	dev  *comm.Device
	prob *Problem
	opts Options

	gridL    dist.Layout
	colGroup []int
	// panelFwd/panelBwd are this device's row panels of the forward (Aᵀ)
	// and backward (A) operators; the same object when the operator is
	// symmetric.
	panelFwd, panelBwd       *sparse.CSR
	panelFwdNNZ, panelBwdNNZ int64

	weights []*tensor.Dense
	adam    *nn.Adam

	// gatherBuf is the persistent destination of the column-group
	// feature gather (AllGatherFlat) and gradBufs the per-weight
	// destinations of the gradient all-reduces (AllReduceSumInto):
	// steady-state epochs reuse them, so the hot comm path allocates
	// nothing per round. Safe without locks — every op touching a
	// buffer classifies to the same overlap lane (KSpMM to the column
	// group's link resource, KAllReduceGrad to the world's), so uses
	// are serialized even under the concurrent executor.
	gatherBuf []float32
	gradBufs  [][]float32

	// sched is the epoch's compiled, optimized op schedule (internal/plan):
	// compiled once in NewEngine and interpreted every epoch. Shapes in the
	// schedule are advisory — the executor reads live matrix shapes, so a
	// SetProblem swap (GraphSAINT subgraphs) reuses the same schedule.
	sched *plan.Schedule
	// dag is sched's dependency DAG, built on first overlap epoch
	// (overlap.go).
	dag *plan.DAG

	// live is the sorted live row set of X (value scan), consumed by the
	// schedule's sparse redistributions; nil for a dense schedule.
	live []int32

	// epochMask is the current epoch's sampled-neighbor mask for this
	// device's panel rows (nil when sampling is off).
	epochMask [][]int32
	epoch     int

	// lastLogits is this device's horizontal tile of the most recent
	// forward pass's output (pre-loss), for evaluation.
	lastLogits *dist.Mat
	lastLoss   float64

	// infRegs is the serving path's retained register file (inference.go):
	// activations persist across RunInference calls so a staleness policy
	// can re-run only the sections from the first stale layer.
	infRegs []*dist.Mat
	infInit bool
}

// NewEngine builds the device-local state: the adjacency row panel and
// replicated, identically-initialized weights.
func NewEngine(dev *comm.Device, prob *Problem, opts Options) *Engine {
	p := dev.P()
	opts = opts.withDefaults(p)
	opts.validate(p, prob)
	e := &Engine{dev: dev, prob: prob, opts: opts}
	e.gridL = dist.G(opts.RA).Normalize(p)
	// Column group: ranks sharing my grid column index (same feature
	// slice), holding between them every row panel. Ascending rank order
	// equals ascending panel order.
	j := dev.Rank % opts.RA
	for r := j; r < p; r += opts.RA {
		e.colGroup = append(e.colGroup, r)
	}
	e.extractPanels()

	rng := rand.New(rand.NewSource(opts.Seed))
	for l := 1; l <= opts.Layers(); l++ {
		w := tensor.NewDense(opts.Dims[l-1], opts.Dims[l])
		w.GlorotInit(rng)
		e.weights = append(e.weights, w)
		if opts.SAGE {
			ws := tensor.NewDense(opts.Dims[l-1], opts.Dims[l])
			ws.GlorotInit(rng)
			e.weights = append(e.weights, ws)
		}
	}
	e.adam = nn.NewAdam(opts.LR, e.weights)
	e.gradBufs = make([][]float32, len(e.weights))
	e.sched = plan.Compile(plan.Spec{
		N: prob.N(), Dims: opts.Dims, Config: opts.Config,
		P: p, RA: opts.RA, SAGE: opts.SAGE, Memoize: opts.Memoize,
		InputGrad: opts.ComputeInputGrad,
		Live:      opts.Live, SparseSeed: opts.SparseSeed,
	}).Optimize()
	e.scanLive()
	dev.TraceSetConfig(opts.Config.String())
	return e
}

// scanLive refreshes the executor's live row set for sparse
// redistributions: the value-based scan of the actual features, so the
// exchange ships exactly the rows that are nonzero — the planner's
// GenRows assumption is a pricing identity, not a correctness
// requirement.
func (e *Engine) scanLive() {
	e.live = nil
	if e.sched.Live > 0 {
		e.live = dist.LiveRows(e.prob.X)
	}
}

// Schedule returns the compiled, optimized op schedule this engine
// interprets each epoch.
func (e *Engine) Schedule() *plan.Schedule { return e.sched }

// Weights exposes the (replicated) weight matrices.
func (e *Engine) Weights() []*tensor.Dense { return e.weights }

// LastLogits returns this device's horizontal logits tile from the most
// recent epoch.
func (e *Engine) LastLogits() *dist.Mat { return e.lastLogits }

// extractPanels slices this device's row panels out of the problem's
// operators.
func (e *Engine) extractPanels() {
	rlo, rhi := dist.RowRange(e.gridL, e.dev.P(), e.dev.Rank, e.prob.N())
	e.panelBwd = e.prob.A.RowPanel(rlo, rhi)
	e.panelBwdNNZ = e.panelBwd.NNZ()
	if e.prob.ATranspose != nil {
		if e.opts.MaskProvider != nil {
			panic("core: MaskProvider requires a symmetric operator")
		}
		e.panelFwd = e.prob.fwdOperator().RowPanel(rlo, rhi)
		e.panelFwdNNZ = e.panelFwd.NNZ()
	} else {
		e.panelFwd, e.panelFwdNNZ = e.panelBwd, e.panelBwdNNZ
	}
}

// spmm computes Aᵀ·m (forward) or A·m (backward) for a grid-distributed
// dense matrix m, returning a grid-distributed result. With R_A = P
// (vertical layout) this is communication-free (Fig. 2a); with R_A < P
// each column group gathers its feature slice, moving (P/R_A - 1)·N·w
// elements (§III-E).
func (e *Engine) spmm(dev *comm.Device, m *dist.Mat, forward bool) *dist.Mat {
	if m.Layout != e.gridL {
		panic(fmt.Sprintf("core: spmm input layout %v, want %v", m.Layout, e.gridL))
	}
	panel, nnz := e.panelBwd, e.panelBwdNNZ
	if forward {
		panel, nnz = e.panelFwd, e.panelFwdNNZ
	}
	w := m.Local.Cols
	var full *tensor.Dense
	if len(e.colGroup) == 1 {
		full = m.Local
	} else {
		// Flat gather straight into the persistent buffer: each member's
		// bytes are written once at their final offset, skipping the
		// per-member private copies AllGather would hand out. full wraps
		// the buffer (no copy); it is only read within this call.
		e.gatherBuf = dev.AllGatherFlat(e.colGroup, m.Local.Data, e.gatherBuf)
		full = tensor.FromRowMajor(m.GlobalRows, w, e.gatherBuf)
		dev.ChargeMem(full.Bytes())
	}
	var out *tensor.Dense
	if e.epochMask != nil {
		out = panel.MaskedSpMM(full, e.epochMask)
	} else {
		out = panel.SpMM(full)
	}
	dev.ChargeSpMM(nnz, w)
	return dist.FromLocal(dev, e.gridL, m.GlobalRows, m.GlobalCols, out)
}

// gemm computes m · W (or m · Wᵀ) for a horizontal m with replicated W:
// communication-free (Fig. 2b).
func (e *Engine) gemm(dev *comm.Device, m *dist.Mat, w *tensor.Dense, transW bool) *dist.Mat {
	if m.Layout != dist.H {
		panic("core: gemm input must be horizontal")
	}
	var out *tensor.Dense
	if transW {
		out = tensor.MatMulTB(m.Local, w)
	} else {
		out = tensor.MatMul(m.Local, w)
	}
	dev.ChargeGemm(m.Local.Rows, m.Local.Cols, out.Cols)
	return dist.FromLocal(dev, dist.H, m.GlobalRows, out.Cols, out)
}

// runOps interprets one schedule section's ops in order, tagging trace
// events with each op's plan step ID.
func (e *Engine) runOps(sec *plan.Section, regs []*dist.Mat, grads []*tensor.Dense) {
	for i := range sec.Ops {
		op := &sec.Ops[i]
		e.dev.TraceSetStep(op.Step)
		e.execOp(e.dev, op, regs, grads)
	}
	e.dev.TraceSetStep(0)
}

// runForward interprets the init, per-layer forward, and loss sections,
// reproducing the phase/layer trace structure of the historical
// hand-written forward pass.
func (e *Engine) runForward(regs []*dist.Mat, grads []*tensor.Dense) {
	e.dev.TraceSetDir("fwd")
	e.dev.TraceBeginPhase("forward")
	for i := range e.sched.Sections {
		sec := &e.sched.Sections[i]
		switch sec.Phase {
		case "init":
			// H^0 is free in whatever layouts the schedule asks for: the
			// initial distribution is a data-loading choice (§IV-A1).
			e.runOps(sec, regs, grads)
		case "fwd":
			e.dev.TraceSetLayer(sec.Layer)
			e.dev.TraceBeginPhase("layer")
			e.runOps(sec, regs, grads)
			e.dev.TraceEndPhase()
		case "loss":
			// Loss: vertex-complete logits required, so a vertical final
			// layer pays one last redistribution (§IV-A1).
			e.dev.TraceSetLayer(0)
			e.dev.TraceBeginPhase("loss")
			e.runOps(sec, regs, grads)
			e.dev.TraceEndPhase()
		}
	}
	e.dev.TraceEndPhase()
	e.dev.TraceSetDir("")
}

// runBackward interprets the per-layer backward sections (compiled in
// layer order L..1).
func (e *Engine) runBackward(regs []*dist.Mat, grads []*tensor.Dense) {
	e.dev.TraceSetDir("bwd")
	e.dev.TraceBeginPhase("backward")
	for i := range e.sched.Sections {
		sec := &e.sched.Sections[i]
		if sec.Phase != "bwd" {
			continue
		}
		e.dev.TraceSetLayer(sec.Layer)
		e.dev.TraceBeginPhase("layer")
		e.runOps(sec, regs, grads)
		e.dev.TraceEndPhase()
	}
	e.dev.TraceSetLayer(0)
	e.dev.TraceEndPhase()
	e.dev.TraceSetDir("")
}

// execOp interprets one schedule op on dev — the engine's own device in
// sequential mode, one of its resource lanes under the overlap executor
// (charges and collectives then land on that lane's clock and trace
// track). Global shapes come from the live matrices (not the schedule's
// compile-time fields), so the same schedule drives problems of any
// vertex count; only weight shapes — fixed by Dims — are read from the
// op.
func (e *Engine) execOp(dev *comm.Device, op *plan.Op, regs []*dist.Mat, grads []*tensor.Dense) {
	switch op.Kind {
	case plan.KInput:
		regs[op.Dst] = dist.Distribute(dev, op.Layout, e.prob.X)
	case plan.KRedist:
		m := regs[op.A]
		if m.Dev != dev {
			m = m.WithDevice(dev)
		}
		if op.Sparse {
			regs[op.Dst] = m.RedistributeSparse(op.To, e.live)
		} else {
			regs[op.Dst] = m.Redistribute(op.To)
		}
	case plan.KSpMM:
		regs[op.Dst] = e.spmm(dev, regs[op.A], op.Forward)
	case plan.KGEMM:
		regs[op.Dst] = e.gemm(dev, regs[op.A], e.weights[op.Weight], op.TransW)
	case plan.KGradGEMM:
		// Local vertex-sliced partial of an (·)ᵀ(·) weight-gradient
		// product; the partials differ per device until KAllReduceGrad
		// sums them, so the R layout here is a forward declaration.
		a, b := regs[op.A], regs[op.B]
		partial := tensor.MatMulTA(a.Local, b.Local)
		dev.ChargeGemm(a.Local.Cols, a.Local.Rows, b.Local.Cols)
		regs[op.Dst] = dist.FromLocal(dev, dist.R, partial.Rows, partial.Cols, partial)
	case plan.KAllReduceGrad:
		// Reduce into this weight's persistent gradient buffer; the
		// result is consumed by the update before the next epoch's
		// reduce rewrites it.
		buf := e.gradBufs[op.Weight]
		if len(buf) != op.Rows*op.Cols {
			buf = make([]float32, op.Rows*op.Cols)
			e.gradBufs[op.Weight] = buf
		}
		dev.AllReduceSumInto(dev.World(), regs[op.A].Local.Data, buf)
		grads[op.Weight] = tensor.FromRowMajor(op.Rows, op.Cols, buf)
	case plan.KReLU:
		regs[op.A].Local.ReLU()
		dev.ChargeMem(regs[op.A].Local.Bytes())
	case plan.KReLUGrad:
		e.applyReLUMask(dev, regs[op.A], regs[op.B])
	case plan.KAdd:
		regs[op.A].Local.Add(regs[op.B].Local)
		dev.ChargeMem(regs[op.A].Local.Bytes())
	case plan.KMemoize, plan.KReuse:
		regs[op.Dst] = regs[op.A]
	case plan.KLoss:
		logits := regs[op.A]
		e.lastLogits = logits
		p := dev.P()
		rlo, rhi := dist.RowRange(dist.H, p, dev.Rank, e.prob.N())
		var mask []bool
		if e.prob.TrainMask != nil {
			mask = e.prob.TrainMask[rlo:rhi]
		}
		var lw []float32
		if e.prob.LossWeights != nil {
			lw = e.prob.LossWeights[rlo:rhi]
		}
		lossSum, grad, wtot := nn.WeightedSoftmaxCrossEntropySum(logits.Local, e.prob.Labels[rlo:rhi], mask, lw)
		dev.ChargeMem(2 * logits.Local.Bytes())
		tot := dev.AllReduceSum(dev.World(), []float32{float32(lossSum), float32(wtot)})
		totalCount := float64(tot[1])
		if totalCount > 0 {
			grad.Scale(float32(1.0 / totalCount))
			e.lastLoss = float64(tot[0]) / totalCount
		} else {
			e.lastLoss = 0
		}
		regs[op.Dst] = dist.FromLocal(dev, dist.H, e.prob.N(), e.opts.Dims[e.opts.Layers()], grad)
	case plan.KMemWrite:
		dev.ChargeMem(regs[op.A].Local.Bytes())
	case plan.KUpdate:
		e.adam.Step(e.weights, grads)
		var wBytes int64
		for _, w := range e.weights {
			wBytes += w.Bytes()
		}
		dev.ChargeMem(4 * wBytes)
	default:
		panic(fmt.Sprintf("core: unknown schedule op kind %v", op.Kind))
	}
}

// applyReLUMask multiplies u element-wise by σ'(Z^{l-1}) = [H^{l-1} > 0],
// with src a copy of H^{l-1}. When src already lives in u's layout the
// mask is applied locally; otherwise a byte-packed mask is redistributed
// (¼ of the elements — a mechanical cost the paper's model omits; see
// EXPERIMENTS.md). The planner encodes the choice in the op's From/To
// layouts; the decision re-derives here from the live matrices.
func (e *Engine) applyReLUMask(dev *comm.Device, u, src *dist.Mat) {
	if src.Layout != u.Layout {
		from := src
		mask := tensor.NewDense(from.Local.Rows, from.Local.Cols)
		for i, v := range from.Local.Data {
			if v > 0 {
				mask.Data[i] = 1
			}
		}
		dev.ChargeMem(mask.Bytes())
		src = dist.FromLocal(dev, from.Layout, from.GlobalRows, from.GlobalCols, mask).
			RedistributeMask(u.Layout)
	}
	for i, v := range src.Local.Data {
		if v <= 0 {
			u.Local.Data[i] = 0
		}
	}
	dev.ChargeMem(u.Local.Bytes())
}

// Epoch runs one full training epoch (forward, loss, backward, Adam
// update) and returns the training loss.
func (e *Engine) Epoch() float64 {
	if e.opts.MaskProvider != nil {
		rlo, rhi := dist.RowRange(e.gridL, e.dev.P(), e.dev.Rank, e.prob.N())
		e.epochMask = e.opts.MaskProvider(e.epoch, rlo, rhi)
	}
	e.dev.TraceSetEpoch(e.epoch)
	e.dev.TraceBeginPhase("epoch")
	defer e.dev.TraceEndPhase()
	e.epoch++
	regs := make([]*dist.Mat, e.sched.NumRegs)
	grads := make([]*tensor.Dense, len(e.weights))
	if e.opts.Overlap {
		e.runOverlap(regs, grads)
		return e.lastLoss
	}
	e.runForward(regs, grads)
	e.runBackward(regs, grads)
	e.dev.TraceBeginPhase("update")
	for i := range e.sched.Sections {
		if sec := &e.sched.Sections[i]; sec.Phase == "update" {
			e.runOps(sec, regs, grads)
		}
	}
	e.dev.TraceEndPhase()
	return e.lastLoss
}

// EvalAccuracy computes accuracy over the masked vertices using the most
// recent epoch's logits, reduced across devices.
func (e *Engine) EvalAccuracy(mask []bool) float64 {
	if e.lastLogits == nil {
		return 0
	}
	rlo, rhi := dist.RowRange(dist.H, e.dev.P(), e.dev.Rank, e.prob.N())
	var m []bool
	if mask != nil {
		m = mask[rlo:rhi]
	}
	correct, total := localAccuracyCounts(e.lastLogits.Local, e.prob.Labels[rlo:rhi], m)
	tot := e.dev.AllReduceSum(e.dev.World(), []float32{float32(correct), float32(total)})
	if tot[1] == 0 {
		return 0
	}
	return float64(tot[0]) / float64(tot[1])
}

func localAccuracyCounts(logits *tensor.Dense, labels []int32, mask []bool) (correct, total int) {
	for i := 0; i < logits.Rows; i++ {
		if (mask != nil && !mask[i]) || labels[i] < 0 {
			continue
		}
		total++
		row := logits.Row(i)
		best := 0
		for j := 1; j < len(row); j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if int32(best) == labels[i] {
			correct++
		}
	}
	return correct, total
}

// SetProblem swaps the training problem (e.g. a new GraphSAINT
// subgraph), re-extracting this device's adjacency panel while keeping
// the optimizer state and weights. Dims[0] must match the new feature
// width.
func (e *Engine) SetProblem(prob *Problem) {
	if prob.X.Cols != e.opts.Dims[0] {
		panic("core: SetProblem feature width mismatch")
	}
	e.prob = prob
	e.extractPanels()
	e.scanLive()
	e.lastLogits = nil
}

// Forward runs inference only (no loss/backward) and returns this
// device's horizontal logits tile.
func (e *Engine) Forward() *dist.Mat {
	regs := make([]*dist.Mat, e.sched.NumRegs)
	grads := make([]*tensor.Dense, len(e.weights))
	e.runForward(regs, grads)
	return e.lastLogits
}
