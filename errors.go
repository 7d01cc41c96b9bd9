package nova

import "errors"

// Sentinel errors returned (wrapped) by the encoding entry points. Match
// them with errors.Is; the wrapping message names the algorithm and the
// variable (state or symbolic input) that failed.
var (
	// ErrGaveUp reports that iexact exhausted its work budget without
	// settling the instance. The partial *Result returned alongside it
	// holds whatever the run had settled; match the condition with
	// errors.Is(err, ErrGaveUp).
	ErrGaveUp = errors.New("nova: gave up within the work budget")

	// ErrUnencodable reports that no two-level implementation can be
	// produced for the machine at all — for example a code assignment
	// that would need more than 64 bits, an invalid assignment, or a
	// nondeterministic table (overlapping rows that disagree).
	ErrUnencodable = errors.New("nova: machine not encodable")

	// ErrCanceled reports that the context passed to EncodeContext /
	// EncodeAll was canceled or its deadline expired before the run
	// finished. The underlying context error (context.Canceled or
	// context.DeadlineExceeded) is joined in, so errors.Is matches both.
	ErrCanceled = errors.New("nova: encoding canceled")

	// ErrBadOptions reports an Options value (or a wire Request) that no
	// run could honor — an unknown algorithm, an out-of-range encoding
	// length, a negative budget. It is returned by Options.Validate and,
	// wrapped, by every public entry point before any work starts.
	ErrBadOptions = errors.New("nova: bad options")

	// ErrUnsupportedVersion reports a wire Request whose api_version field
	// names a schema revision this build does not speak. It always travels
	// joined with ErrBadOptions (an unsupported version is a bad request),
	// but matches separately under errors.Is so clients can distinguish
	// "upgrade me" from "fix your request". The wire kind is
	// ErrKindUnsupportedVersion.
	ErrUnsupportedVersion = errors.New("nova: unsupported wire api_version")

	// ErrOverloaded reports that a serving layer refused the request to
	// protect itself: admission saturation, priority load shedding, or a
	// graceful drain. The request itself is fine — retrying after a
	// backoff (these responses carry a Retry-After header) is the right
	// reaction. The wire kind is ErrKindOverloaded.
	ErrOverloaded = errors.New("nova: server overloaded")
)

// canceledErr wraps a context error so that both nova.ErrCanceled and the
// original context sentinel match under errors.Is.
func canceledErr(cause error) error {
	return errors.Join(ErrCanceled, cause)
}

func isGaveUp(err error) bool   { return errors.Is(err, ErrGaveUp) }
func isCanceled(err error) bool { return errors.Is(err, ErrCanceled) }
