package coord

import (
	"sync"
	"time"
)

// DefaultRateBurst is the token-bucket depth when a rate is configured
// without an explicit burst: enough for a small agent fleet behind one
// NAT to register together, small enough that a dialer loop trips the
// limit within a second.
const DefaultRateBurst = 5

// rateLimiter is a per-key token bucket family on the control-plane
// clock. Keys are remote hosts (address minus port), so one
// misbehaving machine throttles only itself. A nil limiter allows
// everything — rates are opt-in.
//
// A bucket that has refilled to burst behaves exactly like the full one
// a new key gets, so the limiter forgets it: holding only the hosts
// seen within the last refill time, not every host ever seen. That
// needs a clock that never runs backward, which the control-plane
// clock (wall time since start, or a scripted one) is.
type rateLimiter struct {
	rate   float64       // tokens per second
	burst  float64       // bucket depth
	refill time.Duration // burst/rate: an untouched bucket is full again after it

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	swept   time.Duration // clock reading of the last forget pass
}

type tokenBucket struct {
	tokens float64
	last   time.Duration
}

// newRateLimiter builds a limiter, or nil when rate is unset.
func newRateLimiter(rate, burst float64) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = DefaultRateBurst
	}
	refill := time.Duration(burst / rate * float64(time.Second))
	return &rateLimiter{rate: rate, burst: burst, refill: refill, buckets: map[string]*tokenBucket{}}
}

// allow takes one token from key's bucket at the given clock reading,
// reporting whether one was available. New keys start with a full
// bucket.
func (l *rateLimiter) allow(key string, now time.Duration) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if now-l.swept >= l.refill {
			l.forgetFull(now)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	if now > b.last {
		b.tokens += l.rate * (now - b.last).Seconds()
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// forgetFull drops every bucket that has refilled to burst by now. It
// runs as the map grows, at most once per refill time, and what it
// keeps was touched within the refill time before it, so its walks cost
// O(1) amortized per allow.
func (l *rateLimiter) forgetFull(now time.Duration) {
	for key, b := range l.buckets {
		if now >= b.last && b.tokens+l.rate*(now-b.last).Seconds() >= l.burst {
			delete(l.buckets, key)
		}
	}
	l.swept = now
}
