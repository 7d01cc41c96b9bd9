package nova

// The wire-stable request/response API: one pair of JSON-tagged types
// shared by the library, the nova/client package and the novad server,
// so every serialization of an encode goes through the same
// schema. The field names below are a compatibility contract — add new
// fields freely, never rename or repurpose existing ones.
//
// Scheduling knobs (Options.Parallelism and friends) are deliberately
// absent from Request: by the package's determinism guarantee they never
// change the computed Result, only wall-clock time, so they belong to
// the side running the request (CLI flag, server config) rather than to
// the wire. The same property makes content-addressed caching of
// responses sound: Request.CacheKey fingerprints exactly the inputs that
// determine the Response bytes.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// WireVersion is the wire schema revision this build speaks: the value
// stamped on every Response and the only Request api_version accepted
// (absent counts as current). The revision covers field meanings, the
// error-kind enum and the cache-key discipline; adding fields does not
// bump it, renaming or repurposing one does.
const WireVersion = 2

// Request is one encode request on the wire.
type Request struct {
	// APIVersion is the wire schema revision the client wrote the request
	// against. Absent (0) means the current revision (WireVersion); any
	// other value than WireVersion is rejected up front with an error
	// matching both ErrBadOptions and ErrUnsupportedVersion.
	APIVersion int `json:"api_version,omitempty"`
	// KISS2 is the machine as KISS2 text (the canonical source form).
	KISS2 string `json:"kiss2"`
	// Name optionally overrides the machine name used in the Response.
	Name string `json:"name,omitempty"`
	// Algorithm is the encoding algorithm ("" = best); see Algorithms.
	Algorithm Algorithm `json:"algorithm,omitempty"`
	// Bits, MaxWork, Seed and RandomTrials mirror the Options fields of
	// the same names (zero values select the documented defaults).
	Bits         int   `json:"bits,omitempty"`
	MaxWork      int   `json:"max_work,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
	RandomTrials int   `json:"random_trials,omitempty"`
	// FastMinimize skips the REDUCE refinement of the final minimization.
	FastMinimize bool `json:"fast_minimize,omitempty"`
	// IncludePLA attaches the minimized encoded PLA text to the Response.
	IncludePLA bool `json:"include_pla,omitempty"`
	// IncludeTelemetry attaches a telemetry summary to the Response.
	IncludeTelemetry bool `json:"include_telemetry,omitempty"`
	// Portfolio configures the portfolio race (Algorithm "portfolio", or
	// an empty Algorithm with this field set). The resolved roster — the
	// default roster when none is given — is part of the cache key.
	Portfolio *WirePortfolio `json:"portfolio,omitempty"`
}

// WirePortfolio is the portfolio race configuration on the wire.
type WirePortfolio struct {
	// Roster lists the candidates in pick-priority order; empty selects
	// the library default roster.
	Roster []WireCandidate `json:"roster,omitempty"`
}

// WireCandidate is one roster member on the wire.
type WireCandidate struct {
	Algorithm Algorithm `json:"algorithm"`
}

// Config translates the wire portfolio into the Options field.
func (wp *WirePortfolio) Config() *PortfolioConfig {
	if wp == nil {
		return nil
	}
	pc := &PortfolioConfig{}
	for _, c := range wp.Roster {
		pc.Roster = append(pc.Roster, c.Algorithm)
	}
	return pc
}

// Version resolves the request's schema revision: an absent api_version
// is read as the current WireVersion, so pre-versioning clients keep
// working unchanged.
func (rq *Request) Version() int {
	if rq.APIVersion == 0 {
		return WireVersion
	}
	return rq.APIVersion
}

// checkVersion rejects a request written against a schema revision this
// build does not speak.
func (rq *Request) checkVersion() error {
	if v := rq.Version(); v != WireVersion {
		return fmt.Errorf("%w: %w: api_version %d (this build speaks %d)",
			ErrBadOptions, ErrUnsupportedVersion, v, WireVersion)
	}
	return nil
}

// Machine parses the request's KISS2 text (applying the Name override).
// Failures wrap ErrBadOptions: a malformed machine is a bad request, not
// an engine failure.
func (rq *Request) Machine() (*FSM, error) {
	if err := rq.checkVersion(); err != nil {
		return nil, err
	}
	if rq.KISS2 == "" {
		return nil, fmt.Errorf("%w: empty kiss2 source", ErrBadOptions)
	}
	f, err := ParseKISSString(rq.KISS2)
	if err != nil {
		return nil, errors.Join(ErrBadOptions, err)
	}
	if rq.Name != "" {
		f.Name = rq.Name
	}
	return f, nil
}

// Options translates the wire fields into an Options value. Scheduling
// knobs are left zero; the caller owns them.
func (rq *Request) Options() Options {
	return Options{
		Algorithm:    rq.Algorithm,
		Bits:         rq.Bits,
		MaxWork:      rq.MaxWork,
		Seed:         rq.Seed,
		RandomTrials: rq.RandomTrials,
		FastMinimize: rq.FastMinimize,
		KeepPLA:      rq.IncludePLA,
		Portfolio:    rq.Portfolio.Config(),
	}
}

// Validate checks the request without running it: the KISS2 source must
// parse and the option fields must pass Options.Validate. The parsed
// machine is returned so callers validate and parse in one step.
func (rq *Request) Validate() (*FSM, error) {
	f, err := rq.Machine()
	if err != nil {
		return nil, err
	}
	if err := rq.Options().Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// cacheKeyVersion stamps every cache key; bump it whenever the Response
// schema or the encoding pipeline changes observably, so stale caches
// can never serve bytes produced by an older layout. v2: WireTelemetry
// grew the per-phase table (telemetry-carrying bodies changed shape).
// v3: Response bodies are stamped with api_version.
const cacheKeyVersion = "nova-wire-v3"

// CacheKey returns the content address of the request: a SHA-256 hex
// digest of the canonical machine text (re-emitted from the parsed FSM,
// so formatting, comments and row order quirks of the source do not
// split the cache) and of every result-determining option. Requests with
// equal keys produce byte-identical Responses; scheduling knobs are
// excluded by construction.
func (rq *Request) CacheKey() (string, error) {
	f, err := rq.Validate()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, cacheKeyVersion)
	io.WriteString(h, "\nname=")
	io.WriteString(h, f.Name)
	io.WriteString(h, "\n")
	io.WriteString(h, f.String())
	alg := algorithmOrDefault(rq.Algorithm, rq.Portfolio != nil)
	fmt.Fprintf(h, "alg=%s bits=%d maxwork=%d seed=%d trials=%d fast=%t pla=%t telemetry=%t\n",
		alg, rq.Bits, rq.MaxWork, rq.Seed, rq.RandomTrials,
		rq.FastMinimize, rq.IncludePLA, rq.IncludeTelemetry)
	if alg == Portfolio {
		// The resolved roster is result-determining.
		io.WriteString(h, "portfolio=")
		for i, a := range rq.Portfolio.Config().roster() {
			if i > 0 {
				io.WriteString(h, ",")
			}
			io.WriteString(h, string(a))
		}
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// WireEncoding is one symbolic variable's code table on the wire.
// Codes[i] is the code of value i rendered bit 0 first (the same order
// Encoding.CodeString uses); Values, when present, names the symbols in
// parallel.
type WireEncoding struct {
	Var    string   `json:"var,omitempty"`
	Bits   int      `json:"bits"`
	Codes  []string `json:"codes"`
	Values []string `json:"values,omitempty"`
}

// Decode parses the code table back into an Encoding.
func (we WireEncoding) Decode() (Encoding, error) {
	e := Encoding{Bits: we.Bits, Codes: make([]uint64, len(we.Codes))}
	for i, s := range we.Codes {
		if len(s) != we.Bits {
			return Encoding{}, fmt.Errorf("%w: code %q of %s has %d bits, want %d",
				ErrBadOptions, s, we.Var, len(s), we.Bits)
		}
		var c uint64
		for bit, ch := range s {
			switch ch {
			case '1':
				c |= 1 << uint(bit)
			case '0':
			default:
				return Encoding{}, fmt.Errorf("%w: code %q of %s has invalid character %q",
					ErrBadOptions, s, we.Var, ch)
			}
		}
		e.Codes[i] = c
	}
	return e, nil
}

// wireEncodingOf renders one variable's encoding for the wire.
func wireEncodingOf(name string, values []string, e Encoding) WireEncoding {
	we := WireEncoding{Var: name, Bits: e.Bits, Codes: make([]string, e.Len())}
	for i := range we.Codes {
		we.Codes[i] = e.CodeString(i)
	}
	if len(values) == e.Len() {
		we.Values = append([]string(nil), values...)
	}
	return we
}

// Error kinds of a Response: the closed enum of wire strings a response's
// error_kind field may carry. The set is part of the wire compatibility
// contract — clients may switch exhaustively over it (treating unknown
// strings as ErrKindInternal for forward compatibility), and additions
// require a note in docs/API.md. ErrorKinds returns the full set.
const (
	// ErrKindBadRequest: the request itself is unusable (malformed body,
	// unparsable KISS2, invalid options). Retrying cannot help.
	ErrKindBadRequest = "bad_request"
	// ErrKindUnsupportedVersion: the request's api_version names a schema
	// revision the server does not speak. Retrying cannot help.
	ErrKindUnsupportedVersion = "unsupported_version"
	// ErrKindGaveUp: iexact exhausted its work budget. Deterministic —
	// retrying the identical request reproduces it.
	ErrKindGaveUp = "gave_up"
	// ErrKindUnencodable: no two-level implementation exists for the
	// machine. Deterministic.
	ErrKindUnencodable = "unencodable"
	// ErrKindCanceled: the request's deadline fired or its client hung up
	// before the run finished. Retrying with a larger budget may succeed.
	ErrKindCanceled = "canceled"
	// ErrKindOverloaded: the server refused the request to protect itself
	// (admission saturation, load shedding, drain). Always retryable —
	// these responses carry a Retry-After header.
	ErrKindOverloaded = "overloaded"
	// ErrKindInternal: everything else. The catch-all for faults the enum
	// does not name; also what clients should map unknown kinds to.
	ErrKindInternal = "internal"
)

// ErrorKinds returns the closed enum of Response error kinds in stable
// order. New kinds are appended, never renamed — the API snapshot gate
// and the docs/API.md table both pin this set.
func ErrorKinds() []string {
	return []string{
		ErrKindBadRequest, ErrKindUnsupportedVersion, ErrKindGaveUp,
		ErrKindUnencodable, ErrKindCanceled, ErrKindOverloaded,
		ErrKindInternal,
	}
}

// ErrorKindOf classifies err for the wire ("" for nil). The unsupported-
// version check precedes the bad-request one because ErrUnsupportedVersion
// always travels joined with ErrBadOptions.
func ErrorKindOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrUnsupportedVersion):
		return ErrKindUnsupportedVersion
	case errors.Is(err, ErrBadOptions):
		return ErrKindBadRequest
	case errors.Is(err, ErrGaveUp):
		return ErrKindGaveUp
	case errors.Is(err, ErrUnencodable):
		return ErrKindUnencodable
	case errors.Is(err, ErrCanceled):
		return ErrKindCanceled
	case errors.Is(err, ErrOverloaded):
		return ErrKindOverloaded
	default:
		return ErrKindInternal
	}
}

// RetryableKind reports whether a request that failed with the given
// error kind is worth retrying: the failure is a transient server or
// timing condition, not a property of the request. Every nova endpoint is
// idempotent (encodes are pure functions of the request), so retrying is
// always *safe*; this reports whether it can *help*. Unknown kinds
// (future servers) report false — the conservative reading of a closed
// enum.
func RetryableKind(kind string) bool {
	switch kind {
	case ErrKindOverloaded, ErrKindCanceled, ErrKindInternal:
		return true
	}
	return false
}

// WireTelemetry is the telemetry summary of one run on the wire.
type WireTelemetry struct {
	WallMicros int64            `json:"wall_us"`
	Spans      int              `json:"spans"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	// Phases is the per-phase span table (self times subtract direct
	// children, so sibling phases partition their parent).
	Phases []WirePhase `json:"phases,omitempty"`
}

// WirePhase is one phase aggregate on the wire: how often the phase ran
// and where its time went. The same rendering is used by
// Response.Telemetry, the novad flight recorder (/debug/requests) and
// the per-request trace opt-in.
type WirePhase struct {
	Name        string `json:"name"`
	Count       int    `json:"count"`
	TotalMicros int64  `json:"total_us"`
	SelfMicros  int64  `json:"self_us"`
}

// WirePhasesOf renders a telemetry snapshot's phase table for the wire
// (nil snapshot or empty table → nil).
func WirePhasesOf(snap *TelemetrySnapshot) []WirePhase {
	if snap == nil || len(snap.Phases) == 0 {
		return nil
	}
	out := make([]WirePhase, len(snap.Phases))
	for i, p := range snap.Phases {
		out[i] = WirePhase{
			Name:        p.Name,
			Count:       p.Count,
			TotalMicros: p.Total.Microseconds(),
			SelfMicros:  p.Self.Microseconds(),
		}
	}
	return out
}

// Response is one encode result (or failure) on the wire.
type Response struct {
	// APIVersion is the wire schema revision the response was rendered
	// under (WireVersion for everything this build emits).
	APIVersion int       `json:"api_version,omitempty"`
	Machine    string    `json:"machine,omitempty"`
	Algorithm  Algorithm `json:"algorithm,omitempty"`
	// Bits / Cubes / Area are the paper's cost columns: total encoding
	// length, product terms, PLA area.
	Bits  int `json:"bits,omitempty"`
	Cubes int `json:"cubes,omitempty"`
	Area  int `json:"area,omitempty"`
	// WSat / WUnsat are the satisfied and unsatisfied input-constraint
	// weights; SatisfiedOC / TotalOC the output covering edges.
	WSat        int `json:"w_sat,omitempty"`
	WUnsat      int `json:"w_unsat,omitempty"`
	SatisfiedOC int `json:"oc_satisfied,omitempty"`
	TotalOC     int `json:"oc_total,omitempty"`
	// RandomAvgArea is the batch average for the random baseline.
	RandomAvgArea int `json:"random_avg_area,omitempty"`
	// Winner is the roster algorithm whose cover a portfolio run
	// returned (absent for every other algorithm).
	Winner Algorithm `json:"winner,omitempty"`
	// States / SymIns / SymOuts carry the code assignment.
	States  *WireEncoding  `json:"states,omitempty"`
	SymIns  []WireEncoding `json:"sym_ins,omitempty"`
	SymOuts []WireEncoding `json:"sym_outs,omitempty"`
	// PLA is the minimized encoded implementation in espresso format
	// (Request.IncludePLA only).
	PLA string `json:"pla,omitempty"`
	// Telemetry is the run summary (Request.IncludeTelemetry only).
	Telemetry *WireTelemetry `json:"telemetry,omitempty"`
	// Error / ErrorKind report a failed encode; every other field except
	// Machine and Algorithm is zero then. ErrorKind is one of the ErrKind
	// constants.
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
}

// ResponseOf renders a successful Result for the wire. The FSM supplies
// the state and symbolic value names.
func ResponseOf(f *FSM, res *Result) *Response {
	rp := &Response{
		APIVersion:    WireVersion,
		Algorithm:     res.Algorithm,
		Bits:          res.Bits,
		Cubes:         res.Cubes,
		Area:          res.Area,
		WSat:          res.WSat,
		WUnsat:        res.WUnsat,
		SatisfiedOC:   res.SatisfiedOC,
		TotalOC:       res.TotalOC,
		RandomAvgArea: res.RandomAvgArea,
		Winner:        res.Winner,
	}
	if f != nil {
		rp.Machine = f.Name
	}
	st := wireEncodingOf("states", stateNames(f), res.Assignment.States)
	rp.States = &st
	for vi, e := range res.Assignment.SymIns {
		name, values := symVar(f, vi, false)
		rp.SymIns = append(rp.SymIns, wireEncodingOf(name, values, e))
	}
	for vi, e := range res.Assignment.SymOuts {
		name, values := symVar(f, vi, true)
		rp.SymOuts = append(rp.SymOuts, wireEncodingOf(name, values, e))
	}
	if res.PLA != nil {
		rp.PLA = res.PLA.String()
	}
	if res.Telemetry != nil {
		rp.Telemetry = &WireTelemetry{
			WallMicros: res.Telemetry.Wall.Microseconds(),
			Spans:      res.Telemetry.Spans,
			Counters:   res.Telemetry.Counters,
			Phases:     WirePhasesOf(res.Telemetry),
		}
	}
	return rp
}

// ErrorResponse renders a failed encode for the wire.
func ErrorResponse(machine string, alg Algorithm, err error) *Response {
	return &Response{
		APIVersion: WireVersion,
		Machine:    machine,
		Algorithm:  alg,
		Error:      err.Error(),
		ErrorKind:  ErrorKindOf(err),
	}
}

// Assignment reconstructs the code assignment carried by the Response,
// for feeding a served encoding back into Verify.
func (rp *Response) Assignment() (Assignment, error) {
	var asg Assignment
	if rp.States == nil {
		return asg, fmt.Errorf("%w: response carries no state encoding", ErrBadOptions)
	}
	var err error
	if asg.States, err = rp.States.Decode(); err != nil {
		return asg, err
	}
	for _, we := range rp.SymIns {
		e, err := we.Decode()
		if err != nil {
			return asg, err
		}
		asg.SymIns = append(asg.SymIns, e)
	}
	for _, we := range rp.SymOuts {
		e, err := we.Decode()
		if err != nil {
			return asg, err
		}
		asg.SymOuts = append(asg.SymOuts, e)
	}
	return asg, nil
}

// VerifyRequest asks the server to check that an assignment implements a
// machine (POST /v1/verify). The assignment fields use the same wire
// encoding as Response, so a served Response can be fed back verbatim.
type VerifyRequest struct {
	// APIVersion follows the same versioning contract as Request.
	APIVersion int            `json:"api_version,omitempty"`
	KISS2      string         `json:"kiss2"`
	Name       string         `json:"name,omitempty"`
	States     *WireEncoding  `json:"states"`
	SymIns     []WireEncoding `json:"sym_ins,omitempty"`
	SymOuts    []WireEncoding `json:"sym_outs,omitempty"`
}

// Machine parses the verify request's KISS2 text (rejecting unsupported
// api_version values the same way Request does).
func (vq *VerifyRequest) Machine() (*FSM, error) {
	rq := Request{APIVersion: vq.APIVersion, KISS2: vq.KISS2, Name: vq.Name}
	return rq.Machine()
}

// Assignment reconstructs the code assignment under test.
func (vq *VerifyRequest) Assignment() (Assignment, error) {
	rp := Response{States: vq.States, SymIns: vq.SymIns, SymOuts: vq.SymOuts}
	return rp.Assignment()
}

// VerifyResponse reports a verification outcome on the wire.
type VerifyResponse struct {
	APIVersion int    `json:"api_version,omitempty"`
	OK         bool   `json:"ok"`
	Error      string `json:"error,omitempty"`
	ErrorKind  string `json:"error_kind,omitempty"`
}

// stateNames returns the FSM's state names, or nil.
func stateNames(f *FSM) []string {
	if f == nil {
		return nil
	}
	return f.States
}

// symVar names the vi-th symbolic input (or output) variable.
func symVar(f *FSM, vi int, out bool) (string, []string) {
	if f == nil {
		return "", nil
	}
	vars := f.SymIns
	if out {
		vars = f.SymOuts
	}
	if vi >= len(vars) {
		return "", nil
	}
	return vars[vi].Name, vars[vi].Values
}
