package syncnet

import (
	"fmt"
	"net"
	"time"

	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
)

// RetryPolicy controls how a client recovers from transport failures:
// exponential backoff with deterministic seeded jitter between
// reconnection attempts. The zero policy never retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (1 = no
	// retry; 0 behaves like 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first reconnect; it doubles
	// per attempt up to MaxDelay. Zero means no delay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = uncapped).
	MaxDelay time.Duration
	// Seed fixes the jitter sequence, keeping recovery schedules
	// reproducible in tests.
	Seed uint64
	// Sleep, when set, replaces time.Sleep (tests inject a recorder; the
	// fault tests inject a no-op to stay fast).
	Sleep func(time.Duration)
}

// WithRetry equips the client with a retry policy. Without WithDialer
// (or Dial, which installs one), retries cannot reconnect and the
// policy is inert.
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithDialer sets the factory used to re-establish the transport after
// a failure.
func WithDialer(dial func() (net.Conn, error)) ClientOption {
	return func(c *Client) { c.dialer = dial }
}

// backoff returns the pre-reconnect delay for the given attempt
// (attempt ≥ 2): exponential in the attempt number with ±25% seeded
// jitter.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.retry.BaseDelay
	if d <= 0 {
		return 0
	}
	for i := 2; i < attempt; i++ {
		d *= 2
		if c.retry.MaxDelay > 0 && d >= c.retry.MaxDelay {
			d = c.retry.MaxDelay
			break
		}
	}
	if c.retry.MaxDelay > 0 && d > c.retry.MaxDelay {
		d = c.retry.MaxDelay
	}
	// ±25% jitter so synchronized clients do not reconnect in lockstep.
	jitter := time.Duration(float64(d) / 2 * c.jitterRNG.float())
	return d*3/4 + jitter
}

// reconnect tears down the broken transport, backs off, redials, and
// re-opens the session with a fresh Hello. Server-side file state
// survives across sessions, so the client's name→id map stays valid.
// The remembered signatures do not: the exchange the cut interrupted
// may or may not have committed, so the version they name is no longer
// known to be current.
func (c *Client) reconnect(attempt int) error {
	c.conn.Close()
	c.sigs.clear()
	if d := c.backoff(attempt); d > 0 {
		c.att.Set("backoff_us", d.Microseconds())
		if c.retry.Sleep != nil {
			c.retry.Sleep(d)
		} else {
			time.Sleep(d)
		}
	}
	conn, err := c.dialer()
	if err != nil {
		return fmt.Errorf("syncnet: reconnect: %w", err)
	}
	if c.tracer != nil || c.ledger != nil {
		conn = &meterConn{Conn: conn, in: &c.wireIn, out: &c.wireOut}
	}
	if err := c.sendOn(conn, &protocol.Hello{User: c.user, Device: c.device, Version: "cloudsync/1", Caps: c.helloCaps()}); err != nil {
		conn.Close()
		return err
	}
	c.conn = conn
	return nil
}

// withRetry runs op, reconnecting and re-running it on transport
// failure until the policy is exhausted. op receives the 1-based
// attempt number so operations can switch to their resume path.
// Protocol-level errors (the server answered, rejecting the request)
// are never retried — retrying cannot change the answer.
func (c *Client) withRetry(op func(attempt int) error) error {
	attempts := c.retry.MaxAttempts
	if attempts < 1 || c.dialer == nil {
		attempts = 1
	}
	// Fresh per-operation ledger state: the payload high-water marks
	// track what this operation has already put on (or pulled off) the
	// wire, so only genuine re-sends are charged as retransmits.
	c.txHigh, c.rxHigh = 0, 0
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		c.attempt = attempt // lets the ledger tag re-sent bytes as retransmits
		c.att = c.op.Child("client.attempt", obs.Int("attempt", int64(attempt)))
		if attempt > 1 {
			if rerr := c.reconnect(attempt); rerr != nil {
				err = rerr // dial failures consume attempts too
				c.att.Set("error", rerr.Error()).End()
				c.att = nil
				continue
			}
		}
		// Propagating sessions prefix every attempt with the trace
		// context (the attempt span), so server-side work on any retry
		// still joins this operation's tree. A failed send is a
		// transport failure like any other: it consumes the attempt.
		if terr := c.sendTraceCtx(); terr != nil {
			err = terr
			c.att.Set("error", terr.Error()).End()
			c.att = nil
			continue
		}
		err = op(attempt)
		if err != nil {
			c.att.Set("error", err.Error())
		}
		c.att.End()
		c.att = nil
		if err == nil {
			return nil
		}
		var perr *protocol.Error
		if isProtoErr(err, &perr) {
			return err
		}
	}
	return err
}

// jitterXorshift is the client's private jitter PRNG (same frozen
// xorshift+splitmix construction the simulator uses, duplicated to
// keep syncnet free of simulator dependencies).
type jitterXorshift uint64

func newJitterRNG(seed uint64) jitterXorshift {
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return jitterXorshift(z)
}

func (x *jitterXorshift) float() float64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = jitterXorshift(v)
	return float64(v>>11) / float64(1<<53)
}
