// Package contend is the contention observatory's live half
// (docs/OBSERVABILITY.md): it turns the raw signals the locking and
// commit layers already expose — per-item lock accounting, the wait-for
// queue state, abort errors — into a top-K item heat table, wait-for
// graph snapshots, and the abort root-cause taxonomy. The trace-derived
// views (abort breakdowns and critical-path profiles of a recorded run)
// are fields of trace.Explain.
//
// The package sits below the engines: core, watch and the CLIs import
// contend; contend imports only the leaf layers it classifies (lock,
// twopc, wal, model).
package contend

import (
	"errors"
	"fmt"

	"repro/internal/lock"
	"repro/internal/twopc"
	"repro/internal/wal"
)

// AbortReason is the root cause of one primary-subtransaction abort.
// Every abort an engine records is classified into exactly one reason;
// ReasonUnknown surviving into a report means a classification gap, which
// the contention smoke treats as a failure.
type AbortReason uint8

const (
	// ReasonUnknown is the zero value: an abort whose error chain matched
	// no known cause. Kept first so an unset tag reads as unclassified.
	ReasonUnknown AbortReason = iota
	// ReasonLockTimeout is a lock request that outwaited the paper's 50 ms
	// timeout (lock.ErrTimeout) — the suspected-deadlock abort of §1.1.
	ReasonLockTimeout
	// ReasonDeadlock is a lock request refused by the local wait-for cycle
	// detector (lock.ErrDeadlock), distinct from a timeout suspicion.
	ReasonDeadlock
	// ReasonWound is a primary killed as a global-deadlock victim: a
	// Secondary-priority request wounded it while it was parked vulnerable
	// on a backedge round trip (§2 fair victim selection).
	ReasonWound
	// ReasonNoVote is a BackEdge 2PC round that decided abort because a
	// participant voted no or its vote was lost (twopc.ErrNoVote).
	ReasonNoVote
	// ReasonWALFence is a commit refused because the site's write-ahead
	// log was fenced by a crash (wal.ErrFenced): the redo record could not
	// be made durable, so the commit never happened.
	ReasonWALFence
	// ReasonCrash is a transaction abandoned because its site was stopped
	// mid-flight (chaos crash or shutdown), not because of any conflict.
	ReasonCrash
	// ReasonLeaseExpired is a PSL reader that reached its commit after the
	// lease on its earliest remote read grant ran out (lock.ErrLeaseExpired):
	// a primary that crashed and restarted since would no longer honour it.
	ReasonLeaseExpired

	numReasons // sentinel; keep last
)

// NumReasons is the number of defined abort reasons, for callers that
// index per-reason instrument arrays.
const NumReasons = int(numReasons)

var reasonNames = [numReasons]string{
	ReasonUnknown:      "unknown",
	ReasonLockTimeout:  "lock_timeout",
	ReasonDeadlock:     "deadlock",
	ReasonWound:        "wound",
	ReasonNoVote:       "2pc_no_vote",
	ReasonWALFence:     "wal_fence",
	ReasonCrash:        "crash",
	ReasonLeaseExpired: "lease_expired",
}

// String returns the stable snake_case name used as the obs counter label,
// the TxnAbort trace tag, and the bench JSON map key.
func (r AbortReason) String() string {
	if r < numReasons {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// MarshalText renders the reason name, making JSON dumps human-readable.
func (r AbortReason) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a reason name.
func (r *AbortReason) UnmarshalText(b []byte) error {
	s := string(b)
	for i := AbortReason(0); i < numReasons; i++ {
		if reasonNames[i] == s {
			*r = i
			return nil
		}
	}
	return fmt.Errorf("contend: unknown abort reason %q", s)
}

// Reasons lists every defined reason in declaration order, for callers
// that register one instrument per reason.
func Reasons() []AbortReason {
	out := make([]AbortReason, numReasons)
	for i := range out {
		out[i] = AbortReason(i)
	}
	return out
}

// Classify maps an abort error to its root cause by walking the wrapped
// chain, so it works through every layer that wraps with %w (txn wraps
// lock errors, engines wrap txn and twopc errors). Wounds and crashes are
// not error-chain-visible — they arrive at the engine out of band (a
// wound channel, a stop signal) — so those call sites pass ReasonWound /
// ReasonCrash explicitly instead of calling Classify. Errors that reach
// the engines without a recognizable cause classify as ReasonUnknown,
// which downstream consumers surface loudly rather than hiding.
func Classify(err error) AbortReason {
	switch {
	case err == nil:
		return ReasonUnknown
	case errors.Is(err, lock.ErrDeadlock):
		return ReasonDeadlock
	case errors.Is(err, lock.ErrTimeout):
		return ReasonLockTimeout
	case errors.Is(err, twopc.ErrNoVote):
		return ReasonNoVote
	case errors.Is(err, wal.ErrFenced):
		return ReasonWALFence
	case errors.Is(err, lock.ErrLeaseExpired):
		return ReasonLeaseExpired
	default:
		return ReasonUnknown
	}
}
