// Corpus for the scoperef (SA02) analyzer. The ctx/area pair mirrors
// the shape of soleil/internal/rtsj/memory's Context and Area.
package scopesrc

type area struct{ name string }

type ctx struct{ depth int }

func (c *ctx) Enter(a *area, fn func() error) error { return fn() }

func (c *ctx) ExecuteInArea(a *area, fn func() error) error { return fn() }

// leaked is the longest-lived state there is.
var leaked *int

type holder struct {
	p  *int
	xs []int
}

// bad stores scope-allocated references into state that outlives the
// scope — every assignment here is the static shape of an RTSJ
// IllegalAssignmentError.
func bad(c *ctx, a *area, h *holder) {
	var captured *int
	c.Enter(a, func() error {
		v := new(int)
		leaked = v            // want `SA02 .*escapes into longer-lived package-level var leaked`
		captured = v          // want `SA02 .*escapes into longer-lived captured variable captured`
		h.p = new(int)        // want `SA02 .*new allocated inside Enter scope.*field p of outer object h`
		h.xs = make([]int, 4) // want `SA02 .*make allocated inside Enter scope`
		return nil
	})
	_ = captured
}

// badExec: ExecuteInArea is the other entry point.
func badExec(c *ctx, a *area) {
	var out []int
	c.ExecuteInArea(a, func() error {
		out = append(out, 1) // want `SA02 .*append allocated inside ExecuteInArea scope`
		return nil
	})
	_ = out
}

// good copies values out of the scope: plain data crossing the
// boundary is exactly what the deep-copy pattern does.
func good(c *ctx, a *area) int {
	var out int
	c.Enter(a, func() error {
		v := new(int)
		*v = 41
		out = *v + 1 // value copy, no reference escapes
		return nil
	})
	return out
}

// internal stores stay inside the scope: assignments to locals of the
// literal are invisible outside it.
func internal(c *ctx, a *area) {
	c.Enter(a, func() error {
		v := new(int)
		w := v // both ends live in the scope
		_ = w
		return nil
	})
}

// suppressed documents an accepted escape (e.g. a wedge-thread pins
// the scope open for the component's lifetime).
func suppressed(c *ctx, a *area) {
	c.Enter(a, func() error {
		leaked = new(int) //soleil:ignore SA02 scope pinned by wedge thread for system lifetime
		return nil
	})
}
