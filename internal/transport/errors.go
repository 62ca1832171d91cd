package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrUnavailable is returned when a site stays unreachable after the
	// client's bounded retries: dial failures, connections dropped before a
	// complete response, or a server that closed mid-frame. The wrapped
	// error chain retains the last underlying cause.
	ErrUnavailable = errors.New("transport: site unavailable")

	// ErrTimeout is returned when a request's deadline expires (slow or
	// wedged server). It is not retried further once the overall deadline
	// has passed.
	ErrTimeout = errors.New("transport: request timed out")

	// ErrDraining is the remote-side refusal of new work during graceful
	// shutdown.
	ErrDraining = errors.New("transport: server draining")
)

// ErrorCode classifies a remote failure on the wire.
type ErrorCode uint32

// Remote error codes carried in MsgError payloads.
const (
	CodeInternal   ErrorCode = iota + 1 // evaluation failed at the site
	CodeBadRequest                      // malformed payload or unknown message type
	CodeDraining                        // server is shutting down
)

// String names the code.
func (c ErrorCode) String() string {
	switch c {
	case CodeInternal:
		return "internal"
	case CodeBadRequest:
		return "bad_request"
	case CodeDraining:
		return "draining"
	default:
		return fmt.Sprintf("code_%d", uint32(c))
	}
}

// RemoteError is a failure reported by the site itself (as opposed to a
// transport failure reaching it). It is never retried except CodeDraining,
// which maps to ErrDraining.
type RemoteError struct {
	Code    ErrorCode
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Code, e.Message)
}

// Is lets errors.Is(err, ErrDraining) match a draining response.
func (e *RemoteError) Is(target error) bool {
	return target == ErrDraining && e.Code == CodeDraining
}

// isTransient reports whether an error is worth retrying on a fresh
// connection: dial failures and connections that died before a complete
// response. Queries are idempotent, so retrying a request whose
// connection broke mid-response is always safe.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		// Dial errors (refused, unreachable) and mid-stream resets are
		// transient; timeouts are handled by the deadline path instead.
		return !opErr.Timeout()
	}
	return false
}

// isDeadline reports whether an error is a deadline expiry.
func isDeadline(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr) && netErr.Timeout()
}
