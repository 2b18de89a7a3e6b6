package sim

import (
	"math/rand"
	"time"
)

// The one policy for waiting out a transient network fault (a partition, a
// lossy link): such faults heal on a schedule, so clients stall on a 200 ms
// to 5 s backoff, and give up after netRetries stalls so that a client on a
// permanently dead node cannot spin the simulation forever.
const (
	retryBase   = 200 * time.Millisecond
	netRetryMax = 5 * time.Second
	netRetries  = 64
)

// Backoff produces bounded exponential retry delays with deterministic
// jitter — the client-side wait discipline for a master that is down.
// Delays start at base, double per call, and saturate at max; each delay
// is then jittered uniformly in [d/2, d) from the supplied RNG, so
// stalled clients de-synchronize (no thundering herd on the restarted
// master) while the whole schedule stays a pure function of the seed.
type Backoff struct {
	base, max, cur time.Duration
	rng            *rand.Rand
}

// NewBackoff returns a backoff over [base, max] drawing jitter from rng. A
// base that is not positive means 200 ms, a max below base means base.
// Construction draws nothing from rng.
func NewBackoff(base, max time.Duration, rng *rand.Rand) Backoff {
	if base <= 0 {
		base = retryBase
	}
	if max < base {
		max = base
	}
	return Backoff{base: base, max: max, rng: rng}
}

// Next returns the next jittered delay and advances the exponential
// schedule.
func (b *Backoff) Next() time.Duration {
	if b.cur == 0 {
		b.cur = b.base
	}
	d := b.cur
	if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	// Uniform in [d/2, d): full jitter halves the mean extra latency while
	// keeping the exponential envelope.
	return d/2 + time.Duration(b.rng.Int63n(int64(d/2)+1))
}

// Retry is one operation's backoff schedule together with its budget of
// stalls: the loop every client of a failed master or a cut link runs,
// leaving the caller its own condition and its own counters.
type Retry struct {
	Backoff
	Budget int // stalls left; negative means unbounded
}

// NewRetry returns the transient-network-fault policy over rng: 200 ms
// doubling to 5 s, at most 64 stalls.
func NewRetry(rng *rand.Rand) Retry {
	return Retry{Backoff: NewBackoff(retryBase, netRetryMax, rng), Budget: netRetries}
}

// Stall sleeps p for the next delay and returns it. Once the budget is spent
// it returns false instead, without sleeping or drawing from the RNG.
func (r *Retry) Stall(p *Proc) (time.Duration, bool) {
	if r.Budget == 0 {
		return 0, false
	}
	if r.Budget > 0 {
		r.Budget--
	}
	d := r.Next()
	p.Sleep(d)
	return d, true
}
