// Package nova reimplements NOVA (Villa & Sangiovanni-Vincentelli, DAC'89 /
// IEEE TCAD 9(9), 1990): optimal state assignment of finite state machines
// for two-level (PLA) logic implementations.
//
// The pipeline is the paper's: the FSM's combinational component is
// represented as a multiple-valued symbolic cover and minimized with the
// built-in ESPRESSO-MV-style minimizer; the minimized cover yields weighted
// input constraints (face-embedding constraints on the state codes) and,
// via symbolic minimization, output covering constraints; one of the
// encoding algorithms (iexact_code, ihybrid_code, igreedy_code,
// iohybrid_code, iovariant_code) assigns codes; the encoded machine is
// minimized again to obtain the final product-term count and PLA area.
//
// Quick start:
//
//	fsm, _ := nova.ParseKISSString(table)
//	res, _ := nova.EncodeContext(ctx, fsm, nova.Options{Algorithm: nova.IHybrid})
//	fmt.Println(res.Assignment.States, res.Cubes, res.Area)
//	fmt.Print(res.PLA)
//
// The context-first functions — EncodeContext, EncodeAll,
// ConstraintsContext, VerifyContext — are the canonical entry points:
// every call that can run for a while takes a context so deadlines and
// cancellation reach the searches. The context-free conveniences
// (Encode, Constraints, Verify in compat.go) are one-line wrappers over
// them with context.Background(). docs/API.md states the stability
// policy for this surface.
//
// The comparison baselines of the paper's evaluation (KISS-style complete
// constraint satisfaction, MUSTANG-style attraction-weight embedding,
// random and 1-hot assignments) are available through the same entry
// point.
package nova

import (
	"context"
	"errors"
	"fmt"
	"io"

	"nova/internal/baseline"
	"nova/internal/constraint"
	"nova/internal/cube"
	"nova/internal/encode"
	"nova/internal/encoding"
	"nova/internal/espresso"
	"nova/internal/kiss"
	"nova/internal/mvmin"
	"nova/internal/obs"
	"nova/internal/sched"
	"nova/internal/symbolic"
	"nova/internal/verify"
)

// FSM is a finite state machine given as a state transition table; see
// NewFSM and ParseKISS.
type FSM = kiss.FSM

// PLA is the encoded two-level implementation.
type PLA = kiss.PLA

// Encoding assigns binary codes to the values of one symbolic variable.
type Encoding = encoding.Encoding

// Assignment is a complete FSM encoding: states plus symbolic inputs.
type Assignment = encoding.Assignment

// Constraint is a weighted input (face-embedding) constraint.
type Constraint = constraint.Constraint

// NewFSM returns an empty FSM with binary inputs/outputs; add transitions
// with AddRow/MustAddRow.
func NewFSM(name string, inputs, outputs int) *FSM { return kiss.New(name, inputs, outputs) }

// ParseKISS reads a KISS2 state transition table.
func ParseKISS(r io.Reader) (*FSM, error) { return kiss.Parse(r) }

// ParseKISSString parses a KISS2 table from a string.
func ParseKISSString(s string) (*FSM, error) { return kiss.ParseString(s) }

// Algorithm selects the encoding algorithm.
type Algorithm string

// The NOVA algorithms (Sections III-VI of the paper) and the evaluation
// baselines.
const (
	// IExact is iexact_code: exact face hypercube embedding, minimum
	// length satisfying every input constraint (may give up on hard
	// instances; the run then fails with an error matching
	// errors.Is(err, ErrGaveUp) alongside a partial Result).
	IExact Algorithm = "iexact"
	// IHybrid is ihybrid_code: bounded-backtracking constraint
	// satisfaction at the minimum length plus projection coding.
	IHybrid Algorithm = "ihybrid"
	// IGreedy is igreedy_code: the fast one-pass heuristic.
	IGreedy Algorithm = "igreedy"
	// IOHybrid is iohybrid_code: symbolic minimization plus input- and
	// output-constraint satisfaction (ordered face hypercube embedding).
	IOHybrid Algorithm = "iohybrid"
	// IOVariant is iovariant_code (Section 6.2.2), the cluster-based
	// variant.
	IOVariant Algorithm = "iovariant"
	// Best runs ihybrid, igreedy and iohybrid and returns the smallest
	// area (the paper's "best of NOVA" column).
	Best Algorithm = "best"
	// Portfolio races a roster of algorithm×seed candidates over the
	// run's worker pool under a shared best-cost bound and returns the
	// cheapest cover — the hedged generalization of Best. The roster,
	// candidate cap and hedging delay come from Options.Portfolio (nil
	// selects DefaultRoster); the pick is deterministic (lowest area,
	// ties to the lowest roster index), so serial and parallel portfolio
	// runs return byte-identical Results. Result.Winner names the roster
	// member that won.
	Portfolio Algorithm = "portfolio"

	// KISS satisfies all input constraints at a heuristic length, like
	// KISS [9].
	KISS Algorithm = "kiss"
	// OneHot assigns one bit per state.
	OneHot Algorithm = "onehot"
	// Random measures a batch of random assignments and returns the best;
	// Result.RandomAvgArea reports the batch average.
	Random Algorithm = "random"
	// MustangP/N/PT/NT are the four MUSTANG [12] runs of Table VII.
	MustangP  Algorithm = "mustang-p"
	MustangN  Algorithm = "mustang-n"
	MustangPT Algorithm = "mustang-pt"
	MustangNT Algorithm = "mustang-nt"
)

// Options configures Encode.
type Options struct {
	// Algorithm defaults to Best.
	Algorithm Algorithm
	// Bits is the total state-encoding length; 0 selects the minimum.
	// Lengths above the minimum let ihybrid/iohybrid run their projection
	// phase (Section 4.2).
	Bits int
	// MaxWork bounds each bounded-backtracking call (paper's max_work);
	// 0 selects the default.
	MaxWork int
	// SearchMemoCap bounds the process-wide failed-embedding memo (the
	// LRU cache of encoding-search verdicts, shared across runs like the
	// tautology memo) at that many entries; 0 keeps the current bound
	// (initially encode.DefaultSearchMemoCap). Negative values are
	// rejected by Validate.
	SearchMemoCap int
	// DisableSearchPruning turns off the search-tree pruning layered on
	// the embedding searcher — constraint infeasibility skips, hypercube
	// symmetry breaking beyond the first placement, and the
	// failed-embedding memo — reverting to the exhaustive enumeration.
	// The encodings produced are equivalent (same area and cube count;
	// see the pruning pipeline section of docs/ALGORITHMS.md); the knob
	// exists for A/B measurement and the equivalence suite.
	DisableSearchPruning bool
	// Seed drives the random baseline and random fallbacks.
	Seed int64
	// RandomTrials is the batch size for Algorithm Random; 0 selects the
	// paper's default of #states + #symbolic inputs.
	RandomTrials int
	// FastMinimize skips the REDUCE refinement in the final espresso
	// passes (faster, slightly larger covers).
	FastMinimize bool
	// KeepPLA attaches the minimized encoded PLA to the result.
	KeepPLA bool
	// Parallelism bounds the worker goroutines of one encoding run (and
	// of a whole EncodeAll batch): 0 selects runtime.GOMAXPROCS(0), 1
	// reproduces the historical serial execution exactly, larger values
	// fan out the independent pieces of the run — the three Best
	// candidate algorithms, the Random trial batch, the per-symbolic-
	// input encodes, and the per-machine tasks of EncodeAll.
	//
	// Determinism guarantee: for a fixed Options value (Seed included)
	// the returned Result is bit-identical for every Parallelism setting.
	// Best joins its candidates by (area, fixed algorithm order), Random
	// draws trial t from the seed sched.SplitSeed(Seed, t) and joins by
	// (area, trial index), and per-variable encodes are deterministic and
	// joined by variable index — so scheduling order never leaks into the
	// result, only into wall-clock time.
	Parallelism int
	// IntraParallelism, when at least 2, additionally parallelizes the
	// inside of one encoding problem: the cofactor branches of the
	// tautology/complement unate recursion in the minimizer fork onto the
	// run's pool (for sub-covers of at least IntraForkCubes cubes), and
	// the encoding searches speculate ahead — iexact fans the primary
	// level vectors of a dimension out under a shared best-index bound,
	// ihybrid/iohybrid speculate the next semiexact link of the greedy
	// chain. The run pool is sized max(Parallelism, IntraParallelism).
	//
	// 0 or 1 (the default) keeps every problem's inside strictly serial.
	// The determinism guarantee above extends to this knob: speculative
	// outcomes are replayed against the serial schedule before adoption,
	// so the Result is bit-identical for every IntraParallelism setting.
	IntraParallelism int
	// IntraForkCubes is the smallest cofactor cover (in cubes) whose
	// recursion branches are forked under IntraParallelism; 0 selects
	// the default (cube.DefaultForkCubes, 24). Smaller values expose more
	// concurrency but pay more goroutine handoffs per unit of work.
	IntraForkCubes int
	// Portfolio configures Algorithm Portfolio: the candidate roster (in
	// pick-priority order), an optional candidate cap, and the hedging
	// delay before the backup candidates launch. nil selects the default
	// roster. Setting it with any other (non-empty) Algorithm is
	// rejected by Validate; with an empty Algorithm it selects
	// Portfolio.
	Portfolio *PortfolioConfig
	// Tracer, when non-nil, records phase spans and counters for the run;
	// the snapshot is attached to Result.Telemetry. The default (nil)
	// records nothing and adds no allocations or measurable overhead to
	// the hot paths. Tracing never changes the computed Result: spans and
	// counters are observation only, and the determinism guarantee above
	// holds with or without a tracer.
	Tracer *Tracer
}

// engine bundles the concurrency machinery of one run (or one EncodeAll
// batch): the bounded pool every fan-out shares, plus — when
// IntraParallelism is on — the unate-recursion fork and the search
// speculation handle backed by the same pool.
type engine struct {
	pool *sched.Pool
	fork *cube.Fork
	fan  encode.Fanout
}

// newEngine builds the run machinery for an Options value that already
// went through withDefaults.
func newEngine(opt Options) *engine {
	eng := &engine{pool: sched.New(sched.PoolSize(opt.Parallelism, opt.IntraParallelism))}
	if opt.IntraParallelism >= 2 {
		eng.fork = cube.NewFork(eng.pool, opt.IntraForkCubes)
		eng.fan = encode.Fanout{Pool: eng.pool}
	}
	if opt.SearchMemoCap > 0 {
		encode.SetSearchMemoCap(opt.SearchMemoCap)
	}
	return eng
}

// Result reports an encoding and its two-level cost.
type Result struct {
	Algorithm  Algorithm
	Assignment Assignment
	// Bits is the total encoding length (state bits plus encoded symbolic
	// input bits) — the "#bits" column of the paper's tables.
	Bits int
	// Cubes is the product-term count after minimizing the encoded
	// machine; Area is the paper's PLA area model.
	Cubes, Area int
	// WSat / WUnsat are the satisfied and unsatisfied input-constraint
	// weights for the state variable.
	WSat, WUnsat int
	// SatisfiedOC / TotalOC count output covering edges (iohybrid only).
	SatisfiedOC, TotalOC int
	// RandomAvgArea is the batch average for Algorithm Random.
	RandomAvgArea int
	// Winner and WinnerSeedSplit identify the roster member whose cover
	// a Portfolio run returned (Winner is empty for every other
	// algorithm).
	Winner          Algorithm
	WinnerSeedSplit int
	// PLA is the minimized encoded implementation (with KeepPLA).
	PLA *PLA
	// Telemetry is the run's phase/counter snapshot, set only when
	// Options.Tracer was provided (nil otherwise).
	Telemetry *TelemetrySnapshot
}

// ConstraintsContext derives the weighted input constraints of the FSM's
// state variable (and of each symbolic input) by multiple-valued
// minimization. Cancellation stops the minimization between passes and
// returns an error matching errors.Is(err, ErrCanceled).
func ConstraintsContext(ctx context.Context, f *FSM) (states []Constraint, symIns [][]Constraint, err error) {
	p, err := mvmin.Build(f)
	if err != nil {
		return nil, nil, err
	}
	cs := p.Constraints(p.Minimize(espresso.Options{Ctx: ctx}))
	if err := ctx.Err(); err != nil {
		return nil, nil, canceledErr(err)
	}
	return cs.States, cs.SymIns, nil
}

// EncodeContext runs the selected algorithm on the FSM and measures the
// encoded two-level implementation. It is the canonical single-machine
// entry point: cancellation or deadline expiry propagates into the
// bounded-backtracking searches (checked at their max_work tick) and the
// espresso loops (checked between passes), so a runaway search stops
// promptly and the call returns an error matching
// errors.Is(err, ErrCanceled).
//
// The run fans out its independent pieces — the three Best candidates,
// the Random trial batch, the per-symbolic-input encodes — over a
// bounded worker pool of Options.Parallelism goroutines; see that field
// for the determinism guarantee.
//
// Invalid Options are rejected up front with an error matching
// errors.Is(err, ErrBadOptions); see Options.Validate.
func EncodeContext(ctx context.Context, f *FSM, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	return encodeRun(ctx, newEngine(opt), f, opt)
}

// encodeObserved wraps one machine's run in the per-run telemetry
// envelope — the "nova.encode" span with its machine/algorithm/outcome
// attributes and the per-algorithm outcome tally. It is the single copy
// of that envelope, shared by EncodeContext (via encodeRun) and the
// EncodeAll fan-out; without a tracer it is exactly encodeWith. The
// tracer must already be attached to ctx (obs.With) by the caller.
func encodeObserved(ctx context.Context, eng *engine, f *FSM, opt Options, t *Tracer) (*Result, error) {
	if t == nil {
		return encodeWith(ctx, eng, f, opt)
	}
	sctx, sp := obs.Span(ctx, "nova.encode")
	sp.SetStr("machine", f.Name)
	sp.SetStr("algorithm", string(opt.Algorithm))
	res, err := encodeWith(sctx, eng, f, opt)
	outcome := outcomeOf(err)
	sp.SetStr("outcome", outcome)
	if res != nil {
		sp.SetInt("area", int64(res.Area))
		sp.SetInt("cubes", int64(res.Cubes))
	}
	sp.End()
	t.Metrics().Add("algo."+outcome+"."+string(opt.Algorithm), 1)
	return res, err
}

// encodeRun completes the single-machine telemetry envelope around
// encodeObserved: the tracer (if any) is attached to the context, the
// pool scheduling counters are flushed, and the snapshot is attached to
// the Result — including the partial Result of an ErrGaveUp run. Without
// a tracer this is exactly encodeWith.
func encodeRun(ctx context.Context, eng *engine, f *FSM, opt Options) (*Result, error) {
	t := opt.Tracer
	if t == nil {
		return encodeWith(ctx, eng, f, opt)
	}
	res, err := encodeObserved(obs.With(ctx, t), eng, f, opt, t)
	m := t.Metrics()
	flushPoolStats(m, eng.pool)
	flushForkStats(m, eng.fork)
	if res != nil {
		res.Telemetry = t.Snapshot()
	}
	return res, err
}

// encodeWith is the engine behind EncodeContext and EncodeAll: every
// fan-out of one run (or one batch) shares the same bounded pool. The
// Options were resolved by withDefaults at the entry point, so
// opt.Algorithm is always a member of the algorithm set here.
func encodeWith(ctx context.Context, eng *engine, f *FSM, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	switch opt.Algorithm {
	case Portfolio:
		return encodePortfolio(ctx, eng, f, opt)
	case Best:
		return encodeBest(ctx, eng, f, opt)
	case Random:
		return encodeRandom(ctx, eng, f, opt)
	case OneHot, MustangP, MustangN, MustangPT, MustangNT:
		res := &Result{Algorithm: opt.Algorithm}
		if opt.Algorithm == OneHot {
			res.Assignment = baseline.OneHotAssignment(f)
		} else {
			res.Assignment = baseline.MustangAssignment(f, mustangVariant(opt.Algorithm))
		}
		return finishEncode(ctx, eng, f, res, opt)
	case IOHybrid, IOVariant:
		return encodeIO(ctx, eng, f, opt)
	case IExact, IHybrid, IGreedy, KISS:
		return encodeInput(ctx, eng, f, opt)
	default:
		return nil, fmt.Errorf("nova: unknown algorithm %q", opt.Algorithm)
	}
}

// minOpt / hybOpt derive the espresso and backtracking options of one
// task from its (group) context and the run engine's intra-problem
// parallelism handles.
func (eng *engine) minOpt(ctx context.Context, opt Options) espresso.Options {
	return espresso.Options{SkipReduce: opt.FastMinimize, Ctx: ctx, Fork: eng.fork}
}

func (eng *engine) hybOpt(ctx context.Context, opt Options) encode.HybridOptions {
	return encode.HybridOptions{MaxWork: opt.MaxWork, Seed: opt.Seed, Ctx: ctx, Fanout: eng.fan, NoPrune: opt.DisableSearchPruning}
}

// encodeBest fans the three candidate algorithms of "best of NOVA" out
// over the pool and joins deterministically: smallest area wins, ties
// resolved by the fixed candidate order, exactly like the serial loop.
func encodeBest(ctx context.Context, eng *engine, f *FSM, opt Options) (*Result, error) {
	algs := []Algorithm{IHybrid, IGreedy, IOHybrid}
	results := make([]*Result, len(algs))
	g := eng.pool.Group(ctx)
	for i, alg := range algs {
		g.Go(func(ctx context.Context) error {
			o := opt
			o.Algorithm = alg
			r, err := encodeWith(ctx, eng, f, o)
			if err != nil {
				return err
			}
			results[i] = r
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	var best *Result
	for _, r := range results {
		if best == nil || r.Area < best.Area {
			best = r
		}
	}
	best.Algorithm = Best
	return best, nil
}

// encodeRandom measures the Random trial batch over the pool. Trial t is
// drawn from sched.SplitSeed(opt.Seed, t), so the batch is bit-identical
// to a serial run regardless of completion order; the join picks the
// smallest area, ties resolved by the lowest trial index.
func encodeRandom(ctx context.Context, eng *engine, f *FSM, opt Options) (*Result, error) {
	trials := opt.RandomTrials
	if trials <= 0 {
		trials = baseline.DefaultRandomTrials(f)
	}
	type trial struct {
		asg Assignment
		m   mvmin.Metrics
	}
	out := make([]trial, trials)
	g := eng.pool.Group(ctx)
	for t := 0; t < trials; t++ {
		g.Go(func(ctx context.Context) error {
			asg := baseline.RandomAssignment(f, sched.SplitSeed(opt.Seed, t))
			m, err := mvmin.Measure(f, asg, eng.minOpt(ctx, opt))
			if err != nil {
				return fmt.Errorf("nova: random trial %d: %w", t, errors.Join(ErrUnencodable, err))
			}
			out[t] = trial{asg, m}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	var best *Result
	sum := 0
	for _, tr := range out {
		sum += tr.m.Area
		if best == nil || tr.m.Area < best.Area {
			best = &Result{Algorithm: Random, Assignment: tr.asg, Bits: tr.m.Bits, Cubes: tr.m.Cubes, Area: tr.m.Area}
		}
	}
	best.RandomAvgArea = sum / trials
	return finishEncode(ctx, eng, f, best, opt)
}

// encodeIO runs iohybrid_code / iovariant_code: symbolic minimization,
// then the state-variable embedding and the per-symbolic-input encodes
// fanned out over the pool (joined by variable index).
func encodeIO(ctx context.Context, eng *engine, f *FSM, opt Options) (*Result, error) {
	res := &Result{Algorithm: opt.Algorithm}
	out, aerr := symbolic.Analyze(f, symbolic.Options{Min: eng.minOpt(ctx, opt)})
	if aerr != nil {
		return nil, aerr
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	var r encode.Result
	symRes := make([]encode.Result, len(f.SymIns))
	g := eng.pool.Group(ctx)
	g.Go(func(ctx context.Context) error {
		sctx, sp := obs.Span(ctx, "search."+string(opt.Algorithm))
		defer sp.End()
		if opt.Algorithm == IOHybrid {
			r = encode.IOHybrid(out.Problem, opt.Bits, eng.hybOpt(sctx, opt))
		} else {
			r = encode.IOVariant(out.Problem, opt.Bits, eng.hybOpt(sctx, opt))
		}
		if r.Err != nil {
			return fmt.Errorf("nova: %s: state variable: %w", opt.Algorithm, canceledErr(r.Err))
		}
		return nil
	})
	for vi := range f.SymIns {
		g.Go(func(ctx context.Context) error {
			sctx, sp := obs.Span(ctx, "search.symin")
			defer sp.End()
			sr := encode.IHybrid(len(f.SymIns[vi].Values), out.SymIns[vi], 0, eng.hybOpt(sctx, opt))
			if sr.Err != nil {
				return fmt.Errorf("nova: %s: symbolic input %s: %w", opt.Algorithm, f.SymIns[vi].Name, canceledErr(sr.Err))
			}
			symRes[vi] = sr
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	res.Assignment.States = r.Enc
	res.WSat, res.WUnsat = r.WSat, r.WUnsat
	res.SatisfiedOC, res.TotalOC = r.SatisfiedOC, r.TotalOC
	for _, sr := range symRes {
		res.Assignment.SymIns = append(res.Assignment.SymIns, sr.Enc)
	}
	return finishEncode(ctx, eng, f, res, opt)
}

// encodeInput runs the input-constraint algorithms (iexact, ihybrid,
// igreedy, KISS-style): one multiple-valued minimization derives the
// constraints, then the state-variable encode and the per-symbolic-input
// encodes fan out over the pool (joined by variable index).
func encodeInput(ctx context.Context, eng *engine, f *FSM, opt Options) (*Result, error) {
	res := &Result{Algorithm: opt.Algorithm}
	_, bsp := obs.Span(ctx, "mvmin.build")
	p, berr := mvmin.BuildWithFork(f, ctx, eng.fork)
	bsp.End()
	if berr != nil {
		return nil, berr
	}
	min := p.Minimize(eng.minOpt(ctx, opt))
	_, csp := obs.Span(ctx, "mvmin.constraints")
	cs := p.Constraints(min)
	csp.End()
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	var r encode.Result
	symRes := make([]encode.Result, len(f.SymIns))
	g := eng.pool.Group(ctx)
	g.Go(func(ctx context.Context) error {
		sctx, sp := obs.Span(ctx, "search."+string(opt.Algorithm))
		defer sp.End()
		switch opt.Algorithm {
		case IExact:
			r = encode.IExact(f.NumStates(), cs.States, encode.ExactOptions{MaxWork: opt.MaxWork, Ctx: sctx, Fanout: eng.fan, NoPrune: opt.DisableSearchPruning})
			if r.Err == nil && r.GaveUp {
				return fmt.Errorf("nova: %s: state variable: %w", opt.Algorithm, ErrGaveUp)
			}
		case IHybrid:
			r = encode.IHybrid(f.NumStates(), cs.States, opt.Bits, eng.hybOpt(sctx, opt))
		case IGreedy:
			r = encode.IGreedy(f.NumStates(), cs.States, opt.Bits)
		case KISS:
			r = encode.SatisfyAll(f.NumStates(), cs.States)
		}
		if r.Err != nil {
			return fmt.Errorf("nova: %s: state variable: %w", opt.Algorithm, canceledErr(r.Err))
		}
		return nil
	})
	for vi := range f.SymIns {
		g.Go(func(ctx context.Context) error {
			sctx, sp := obs.Span(ctx, "search.symin")
			defer sp.End()
			n := len(f.SymIns[vi].Values)
			var sr encode.Result
			switch opt.Algorithm {
			case IExact:
				sr = encode.IExact(n, cs.SymIns[vi], encode.ExactOptions{MaxWork: opt.MaxWork, Ctx: sctx, Fanout: eng.fan, NoPrune: opt.DisableSearchPruning})
				if sr.Err == nil && sr.GaveUp {
					sr = encode.IHybrid(n, cs.SymIns[vi], 0, eng.hybOpt(sctx, opt))
				}
			case KISS:
				sr = encode.SatisfyAll(n, cs.SymIns[vi])
			case IGreedy:
				sr = encode.IGreedy(n, cs.SymIns[vi], 0)
			default:
				sr = encode.IHybrid(n, cs.SymIns[vi], 0, eng.hybOpt(sctx, opt))
			}
			if sr.Err != nil {
				return fmt.Errorf("nova: %s: symbolic input %s: %w", opt.Algorithm, f.SymIns[vi].Name, canceledErr(sr.Err))
			}
			symRes[vi] = sr
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		if errors.Is(err, ErrGaveUp) {
			// The partial Result of a gave-up run travels alongside the
			// error so tables can render their "-" entries.
			return res, err
		}
		return nil, err
	}
	res.Assignment.States = r.Enc
	res.WSat, res.WUnsat = r.WSat, r.WUnsat
	for _, sr := range symRes {
		res.Assignment.SymIns = append(res.Assignment.SymIns, sr.Enc)
	}
	return finishEncode(ctx, eng, f, res, opt)
}

// finishEncode completes a run whose assignment is chosen: symbolic
// outputs are filled in, the encoded machine is minimized and measured.
func finishEncode(ctx context.Context, eng *engine, f *FSM, res *Result, opt Options) (*Result, error) {
	sctx, sp := obs.Span(ctx, "nova.finish")
	defer sp.End()
	ctx = sctx
	mopt := eng.minOpt(ctx, opt)
	if err := fillSymbolicOutputs(f, res, mopt); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	return finishResult(ctx, f, res, opt, mopt)
}

// fillSymbolicOutputs encodes any symbolic output variables that the
// selected algorithm did not already cover: output covering constraints
// are derived by the symbolic-minimization loop (the paper's Section VII
// extension) and satisfied by out_encoder.
func fillSymbolicOutputs(f *FSM, res *Result, mopt espresso.Options) error {
	if len(f.SymOuts) == 0 || len(res.Assignment.SymOuts) == len(f.SymOuts) {
		return nil
	}
	outs, err := symbolic.EncodeSymbolicOutputs(f, symbolic.Options{Min: mopt})
	if err != nil {
		return err
	}
	res.Assignment.SymOuts = nil
	for _, o := range outs {
		res.Assignment.SymOuts = append(res.Assignment.SymOuts, o.Enc)
	}
	return nil
}

func mustangVariant(a Algorithm) baseline.MustangVariant {
	switch a {
	case MustangN:
		return baseline.MustangN
	case MustangPT:
		return baseline.MustangPT
	case MustangNT:
		return baseline.MustangNT
	default:
		return baseline.MustangP
	}
}

// finishResult minimizes the encoded machine and fills the cost fields.
func finishResult(ctx context.Context, f *FSM, res *Result, opt Options, mopt espresso.Options) (*Result, error) {
	e, err := mvmin.EncodePLA(f, res.Assignment)
	if err != nil {
		// The chosen assignment cannot be turned into a two-level
		// implementation (for example, it would need more than 64 bits).
		return nil, fmt.Errorf("nova: %s: %w", res.Algorithm, errors.Join(ErrUnencodable, err))
	}
	min := e.Minimize(mopt)
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	res.Bits = res.Assignment.TotalBits()
	res.Cubes = min.Len()
	res.Area = kiss.Area(f.NI+res.Assignment.InputBits(), res.Assignment.States.Bits,
		f.NO+res.Assignment.OutputBits(), min.Len())
	if opt.KeepPLA {
		pla, perr := kiss.FromCover(min, e.NIn, e.NOut)
		if perr != nil {
			return nil, perr
		}
		res.PLA = pla
	}
	return res, nil
}

// VerifyContext checks that an assignment implements the FSM: the
// encoded, minimized machine is simulated against the symbolic table on
// every (input, state) combination (sampled when the input space is
// large). A '-' output, unspecified next state or unspecified symbolic
// output of a matching row is a don't-care there, as in the PLA the
// encoder minimizes. Cancellation stops the minimization of the encoded machine and
// the simulation sweep, and returns an error matching
// errors.Is(err, ErrCanceled).
func VerifyContext(ctx context.Context, f *FSM, asg Assignment) error {
	err := verify.EquivalentFSM(f, asg, verify.Options{Ctx: ctx})
	if cerr := ctx.Err(); cerr != nil {
		return canceledErr(cerr)
	}
	return err
}

// MinLength returns ceil(log2 n), the minimum encoding length for n
// symbols.
func MinLength(n int) int { return encode.MinLength(n) }
