// Corpus for the spawnleak (SA11) pass; the matching architecture
// lives in arch.xml next to this file. Each Invoke dispatch of the
// leaky class spawns a goroutine that can never return — the static
// shape the soak leak gates catch dynamically.
package spawnleaksrc

import "context"

type services struct{}

type Content interface{ Init(svc *services) error }

type Registry struct{ factories map[string]func() Content }

func (r *Registry) Register(class string, f func() Content) error {
	r.factories[class] = f
	return nil
}

type leaky struct {
	n  int
	ch chan int
}

func (l *leaky) Init(svc *services) error { return nil }

func (l *leaky) Invoke(itf, op string, arg any) (any, error) {
	go l.spin() // want `SA11 .*unconditional loop with no context, stop channel or WaitGroup join`
	go func() { // want `SA11 .*unconditional loop with no context, stop channel or WaitGroup join`
		for {
			l.n++
		}
	}()
	go l.drain()               // bounded: the range ends when the channel closes
	go l.serve(context.TODO()) // bounded: the loop selects on ctx.Done()
	return nil, nil
}

// spin loops forever with no stop signal: every dispatch leaks one.
func (l *leaky) spin() {
	for {
		l.n++
	}
}

// drain ends when the channel is closed — a bounded lifetime.
func (l *leaky) drain() {
	for v := range l.ch {
		l.n += v
	}
}

// serve leaves its loop when the context is cancelled — bounded.
func (l *leaky) serve(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case v := <-l.ch:
			l.n += v
		}
	}
}

func Wire(r *Registry) error {
	return r.Register("leaky", func() Content { return &leaky{} })
}
