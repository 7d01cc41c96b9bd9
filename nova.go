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
	"sync"

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
	// Portfolio races a roster of algorithms over the run's worker pool
	// and returns the cheapest cover — Best with a configurable roster.
	// The roster comes from Options.Portfolio (nil selects
	// DefaultRoster); the pick is deterministic (lowest area, ties to the
	// lowest roster index), so serial and parallel portfolio runs return
	// byte-identical Results. Result.Winner names the algorithm that won.
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
	// Bits is the total state-encoding length; 0, or any value below the
	// minimum MinLength(#states), selects the minimum. Lengths above the
	// minimum let ihybrid/iohybrid run their projection phase (Section
	// 4.2).
	Bits int
	// MaxWork bounds each bounded-backtracking call (paper's max_work);
	// 0 selects the default.
	MaxWork int
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
	// fan out the independent pieces of the run — the Best and Portfolio
	// candidates, the Random trial batch, the per-symbolic-input
	// encodes, and the per-machine tasks of EncodeAll.
	//
	// Determinism guarantee: for a fixed Options value (Seed included)
	// the returned Result is bit-identical for every Parallelism setting.
	// Best, Portfolio and Random share one join that keeps the lowest
	// area, ties to the lowest candidate index (Random draws trial t from
	// the seed sched.SplitSeed(Seed, t)); the candidates of one run share
	// one read-only derivation of the machine's cover and constraints;
	// and per-variable encodes are deterministic and joined by variable
	// index — so scheduling order never leaks into the result, only into
	// wall-clock time.
	Parallelism int
	// Portfolio configures Algorithm Portfolio: the roster of algorithms
	// in pick-priority order. nil selects the default roster. Setting it
	// with any other (non-empty) Algorithm is rejected by Validate; with
	// an empty Algorithm it selects Portfolio.
	Portfolio *PortfolioConfig
	// Tracer, when non-nil, records phase spans and counters for the run;
	// the snapshot is attached to Result.Telemetry. The default (nil)
	// records nothing and adds no allocations or measurable overhead to
	// the hot paths. Tracing never changes the computed Result: spans and
	// counters are observation only, and the determinism guarantee above
	// holds with or without a tracer.
	Tracer *Tracer
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
	// Winner is the roster algorithm whose cover a Portfolio run
	// returned (empty for every other algorithm).
	Winner Algorithm
	// PLA is the minimized encoded implementation (with KeepPLA).
	PLA *PLA
	// Telemetry is the run's phase/counter snapshot, set only when
	// Options.Tracer was provided (nil otherwise).
	Telemetry *TelemetrySnapshot
}

// ConstraintsContext derives the weighted input constraints of the FSM's
// state variable (and of each symbolic input) by multiple-valued
// minimization — the derivation every EncodeContext candidate shares. The
// table checks are EncodeContext's: a structurally invalid table fails
// with the error of FSM.Validate and a nondeterministic one with an error
// matching errors.Is(err, ErrUnencodable). Cancellation stops the
// minimization between passes and returns an error matching
// errors.Is(err, ErrCanceled).
func ConstraintsContext(ctx context.Context, f *FSM) (states []Constraint, symIns [][]Constraint, err error) {
	p, err := prepare(f, Options{})
	if err != nil {
		return nil, nil, err
	}
	cs, err := p.constraints(ctx)
	if err != nil {
		return nil, nil, err
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
// errors.Is(err, ErrBadOptions); see Options.Validate. Before any
// minimization, a structurally invalid table is rejected with the error
// of FSM.Validate, and a table whose overlapping rows disagree (see
// FSM.Deterministic) specifies no machine and is rejected with an error
// matching errors.Is(err, ErrUnencodable).
func EncodeContext(ctx context.Context, f *FSM, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	return encodeRun(ctx, sched.New(opt.Parallelism), f, opt)
}

// encodeObserved wraps one machine's run in the per-run telemetry
// envelope — the "nova.encode" span with its machine/algorithm/outcome
// attributes and the per-algorithm outcome tally. It is the single copy
// of that envelope, shared by EncodeContext (via encodeRun) and the
// EncodeAll fan-out; without a tracer it is exactly encodeMachine. The
// tracer must already be attached to ctx (obs.With) by the caller.
func encodeObserved(ctx context.Context, pool *sched.Pool, f *FSM, opt Options, t *Tracer) (*Result, error) {
	if t == nil {
		return encodeMachine(ctx, pool, f, opt)
	}
	sctx, sp := obs.Span(ctx, "nova.encode")
	sp.SetStr("machine", f.Name)
	sp.SetStr("algorithm", string(opt.Algorithm))
	res, err := encodeMachine(sctx, pool, f, opt)
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
// a tracer this is exactly encodeMachine.
func encodeRun(ctx context.Context, pool *sched.Pool, f *FSM, opt Options) (*Result, error) {
	t := opt.Tracer
	if t == nil {
		return encodeMachine(ctx, pool, f, opt)
	}
	res, err := encodeObserved(obs.With(ctx, t), pool, f, opt, t)
	m := t.Metrics()
	flushPoolStats(m, pool)
	if res != nil {
		res.Telemetry = t.Snapshot()
	}
	return res, err
}

// encodeMachine is one machine's run: prepare checks the table, then
// the selected algorithm runs on the prepared machine. Best, Random and
// Portfolio candidates enter at encodeWith with that same value, so the
// checks and the derivations run once per machine, not once per
// candidate.
func encodeMachine(ctx context.Context, pool *sched.Pool, f *FSM, opt Options) (*Result, error) {
	p, err := prepare(f, opt)
	if err != nil {
		return nil, err
	}
	return encodeWith(ctx, pool, p, opt)
}

// prepared is one machine's derived state, shared read-only by every
// candidate of a run: the multiple-valued cover, its minimization and
// constraint sets (§2.2), the §6.1 symbolic analysis of that cover, and
// the symbolic-output codes. Each is derived on first use, at most once,
// under the context of the candidate that asks first. The candidates of
// a run share their context's cancellation, so a derivation cut short
// fails every consumer with ErrCanceled, and no result is ever built on
// a partly minimized cover.
type prepared struct {
	f *FSM
	// fast is Options.FastMinimize, which every minimization of the run
	// honors.
	fast bool

	buildOnce sync.Once
	mv        *mvmin.Problem
	buildErr  error

	mvOnce sync.Once
	cover  *cube.Cover
	cs     mvmin.ConstraintSets
	mvErr  error

	symOnce sync.Once
	sym     *symbolic.Output
	symErr  error

	outOnce sync.Once
	outs    []Encoding
	outErr  error
}

// prepare checks the table once, before any minimization — structure
// first (FSM.Validate, which Deterministic's indexing relies on), then
// determinism — and returns the machine's prepared value.
func prepare(f *FSM, opt Options) (*prepared, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if ok, why := f.Deterministic(); !ok {
		return nil, fmt.Errorf("%w: nondeterministic table: %s", ErrUnencodable, why)
	}
	return &prepared{f: f, fast: opt.FastMinimize}, nil
}

// minOpt is the espresso configuration of every minimization of the run.
func (p *prepared) minOpt(ctx context.Context) espresso.Options {
	return espresso.Options{SkipReduce: p.fast, Ctx: ctx}
}

// problem returns the machine's multiple-valued cover, building it on
// the first call. The constraints and every encoded PLA of the run start
// from it.
func (p *prepared) problem(ctx context.Context) (*mvmin.Problem, error) {
	p.buildOnce.Do(func() {
		_, sp := obs.Span(ctx, "mvmin.build")
		p.mv, p.buildErr = mvmin.Build(p.f)
		sp.End()
	})
	return p.mv, p.buildErr
}

// constraints returns the constraint sets of the minimized
// multiple-valued cover, deriving the cover on the first call.
func (p *prepared) constraints(ctx context.Context) (mvmin.ConstraintSets, error) {
	p.mvOnce.Do(func() {
		if _, p.mvErr = p.problem(ctx); p.mvErr != nil {
			return
		}
		p.cover = p.mv.Minimize(p.minOpt(ctx))
		if err := ctx.Err(); err != nil {
			p.mvErr = canceledErr(err)
			return
		}
		_, sp := obs.Span(ctx, "mvmin.constraints")
		p.cs = p.mv.Constraints(p.cover)
		sp.End()
	})
	return p.cs, p.mvErr
}

// analysis returns the symbolic analysis of the minimized cover, the
// input of iohybrid_code and iovariant_code.
func (p *prepared) analysis(ctx context.Context) (*symbolic.Output, error) {
	p.symOnce.Do(func() {
		if _, p.symErr = p.constraints(ctx); p.symErr != nil {
			return
		}
		p.sym = symbolic.AnalyzeMinimized(p.mv, p.cover, symbolic.Options{Min: p.minOpt(ctx)})
		if err := ctx.Err(); err != nil {
			p.symErr = canceledErr(err)
		}
	})
	return p.sym, p.symErr
}

// symOutCodes returns the codes of the symbolic output variables: output
// covering constraints derived from the minimized cover (the paper's
// Section VII extension), satisfied by out_encoder.
func (p *prepared) symOutCodes(ctx context.Context) ([]Encoding, error) {
	p.outOnce.Do(func() {
		if _, p.outErr = p.constraints(ctx); p.outErr != nil {
			return
		}
		outs, err := symbolic.EncodeSymbolicOutputs(p.mv, p.cover, symbolic.Options{Min: p.minOpt(ctx)})
		if cerr := ctx.Err(); err == nil && cerr != nil {
			err = canceledErr(cerr)
		}
		if p.outErr = err; err == nil {
			for _, o := range outs {
				p.outs = append(p.outs, o.Enc)
			}
		}
	})
	return p.outs, p.outErr
}

// encodeWith is the engine behind EncodeContext and EncodeAll: every
// fan-out of one run (or one batch) shares the same bounded pool. The
// Options were resolved by withDefaults at the entry point, so
// opt.Algorithm is always a member of the algorithm set here.
func encodeWith(ctx context.Context, pool *sched.Pool, p *prepared, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	switch opt.Algorithm {
	case Portfolio:
		return encodePortfolio(ctx, pool, p, opt)
	case Best:
		return encodeBest(ctx, pool, p, opt)
	case Random:
		return encodeRandom(ctx, pool, p, opt)
	case OneHot, MustangP, MustangN, MustangPT, MustangNT:
		res := &Result{Algorithm: opt.Algorithm}
		if opt.Algorithm == OneHot {
			res.Assignment = baseline.OneHotAssignment(p.f)
		} else {
			res.Assignment = baseline.MustangAssignment(p.f, mustangVariant(opt.Algorithm))
		}
		return finishEncode(ctx, p, res, opt)
	case IOHybrid, IOVariant:
		return encodeIO(ctx, pool, p, opt)
	case IExact, IHybrid, IGreedy, KISS:
		return encodeInput(ctx, pool, p, opt)
	default:
		return nil, fmt.Errorf("nova: unknown algorithm %q", opt.Algorithm)
	}
}

// costed shapes an encode's return values as a sched.Cheapest task's:
// the Result, with its area as the cost.
func costed(r *Result, err error) (*Result, int64, error) {
	if err != nil {
		return nil, 0, err
	}
	return r, int64(r.Area), nil
}

// firstErr is the failure of a join that needs every task to succeed:
// ErrCanceled once ctx is done, else the lowest-index task's error, so
// the reported error never depends on completion order.
func firstErr(ctx context.Context, out []sched.Outcome[*Result]) error {
	for _, o := range out {
		if o.Err == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return canceledErr(err)
		}
		return o.Err
	}
	return nil
}

// hybOpt / exactOpt derive the search options of one task from its
// (group) context.
func hybOpt(ctx context.Context, opt Options) encode.HybridOptions {
	return encode.HybridOptions{MaxWork: opt.MaxWork, Seed: opt.Seed, Ctx: ctx}
}

func exactOpt(ctx context.Context, opt Options) encode.ExactOptions {
	return encode.ExactOptions{MaxWork: opt.MaxWork, Ctx: ctx}
}

// encodeRandom joins the Random trial batch over the pool. Trial t is
// the assignment drawn from sched.SplitSeed(opt.Seed, t), finished like
// any other encode, so the batch is bit-identical to a serial run
// regardless of completion order; the join keeps the smallest area, ties
// to the lowest trial index.
func encodeRandom(ctx context.Context, pool *sched.Pool, p *prepared, opt Options) (*Result, error) {
	trials := opt.RandomTrials
	if trials <= 0 {
		trials = baseline.DefaultRandomTrials(p.f)
	}
	out, win := sched.Cheapest(ctx, pool, trials, func(ctx context.Context, t int) (*Result, int64, error) {
		asg := baseline.RandomAssignment(p.f, sched.SplitSeed(opt.Seed, t))
		return costed(finishEncode(ctx, p, &Result{Algorithm: Random, Assignment: asg}, opt))
	})
	if err := firstErr(ctx, out); err != nil {
		return nil, err
	}
	var sum int64
	for _, o := range out {
		sum += o.Cost
	}
	best := out[win].Value
	best.RandomAvgArea = int(sum / int64(trials))
	return best, nil
}

// encodeIO runs iohybrid_code / iovariant_code: the prepared machine's
// symbolic analysis drives the state-variable embedding and the
// per-symbolic-input encodes.
func encodeIO(ctx context.Context, pool *sched.Pool, p *prepared, opt Options) (*Result, error) {
	out, err := p.analysis(ctx)
	if err != nil {
		return nil, err
	}
	return encodeVars(ctx, pool, p, opt, out.SymIns, func(ctx context.Context) encode.Result {
		if opt.Algorithm == IOHybrid {
			return encode.IOHybrid(out.Problem, opt.Bits, hybOpt(ctx, opt))
		}
		return encode.IOVariant(out.Problem, opt.Bits, hybOpt(ctx, opt))
	})
}

// encodeInput runs the input-constraint algorithms (iexact, ihybrid,
// igreedy, KISS-style): the prepared machine's constraints drive the
// state-variable encode and the per-symbolic-input encodes.
func encodeInput(ctx context.Context, pool *sched.Pool, p *prepared, opt Options) (*Result, error) {
	cs, err := p.constraints(ctx)
	if err != nil {
		return nil, err
	}
	n := p.f.NumStates()
	return encodeVars(ctx, pool, p, opt, cs.SymIns, func(ctx context.Context) encode.Result {
		switch opt.Algorithm {
		case IExact:
			return encode.IExact(n, cs.States, exactOpt(ctx, opt))
		case IHybrid:
			return encode.IHybrid(n, cs.States, opt.Bits, hybOpt(ctx, opt))
		case IGreedy:
			return encode.IGreedy(n, cs.States, opt.Bits)
		default: // KISS
			return encode.SatisfyAll(n, cs.States)
		}
	})
}

// encodeVars fans one run's variable encodes out over the pool: the state
// variable by state under a search.<algorithm> span, and each symbolic
// input from its constraints symIns under a search.symin span. It joins
// them by variable index and finishes the run. A state search that gave
// up (IExact with no encoding) fails the run with ErrGaveUp alongside the
// partial Result, so tables can render their "-" entries.
func encodeVars(ctx context.Context, pool *sched.Pool, p *prepared, opt Options, symIns [][]Constraint, state func(context.Context) encode.Result) (*Result, error) {
	f := p.f
	res := &Result{Algorithm: opt.Algorithm}
	var r encode.Result
	symRes := make([]encode.Result, len(f.SymIns))
	g := pool.Group(ctx)
	g.Go(func(ctx context.Context) error {
		sctx, sp := obs.Span(ctx, "search."+string(opt.Algorithm))
		defer sp.End()
		r = state(sctx)
		if r.Err == nil && r.GaveUp {
			return fmt.Errorf("nova: %s: state variable: %w", opt.Algorithm, ErrGaveUp)
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
				sr = encode.IExact(n, symIns[vi], exactOpt(sctx, opt))
				if sr.Err == nil && sr.GaveUp {
					sr = encode.IHybrid(n, symIns[vi], 0, hybOpt(sctx, opt))
				}
			case KISS:
				sr = encode.SatisfyAll(n, symIns[vi])
			case IGreedy:
				sr = encode.IGreedy(n, symIns[vi], 0)
			default:
				sr = encode.IHybrid(n, symIns[vi], 0, hybOpt(sctx, opt))
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
			return res, err
		}
		return nil, err
	}
	res.Assignment.States = r.Enc
	res.WSat, res.WUnsat = r.WSat, r.WUnsat
	res.SatisfiedOC, res.TotalOC = r.SatisfiedOC, r.TotalOC
	for _, sr := range symRes {
		res.Assignment.SymIns = append(res.Assignment.SymIns, sr.Enc)
	}
	return finishEncode(ctx, p, res, opt)
}

// finishEncode completes a run whose assignment is chosen: symbolic
// outputs the algorithm did not encode take the prepared machine's codes,
// then the encoded machine is minimized and measured.
func finishEncode(ctx context.Context, p *prepared, res *Result, opt Options) (*Result, error) {
	ctx, sp := obs.Span(ctx, "nova.finish")
	defer sp.End()
	if len(p.f.SymOuts) > 0 && len(res.Assignment.SymOuts) != len(p.f.SymOuts) {
		codes, err := p.symOutCodes(ctx)
		if err != nil {
			return nil, err
		}
		res.Assignment.SymOuts = append([]Encoding(nil), codes...)
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	return finishResult(ctx, p, res, opt)
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

// finishResult minimizes the encoded machine, built from the prepared
// machine's multiple-valued cover, and fills the cost fields.
func finishResult(ctx context.Context, p *prepared, res *Result, opt Options) (*Result, error) {
	f := p.f
	mv, err := p.problem(ctx)
	var e *mvmin.Encoded
	if err == nil {
		e, err = mv.EncodePLA(res.Assignment)
	}
	if err != nil {
		// The chosen assignment cannot be turned into a two-level
		// implementation (for example, it would need more than 64 bits).
		return nil, fmt.Errorf("nova: %s: %w", res.Algorithm, errors.Join(ErrUnencodable, err))
	}
	min := e.Minimize(p.minOpt(ctx))
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
