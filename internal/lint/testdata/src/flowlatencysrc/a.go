// Corpus for the flowlatency (SA09) pass; the matching architecture
// lives in arch.xml next to this file. The code is conformant — the
// violation is architectural: a message queued for a 10ms-period
// server waits up to 10ms for the release that drains it, before the
// serve even starts, against a 2ms contracted budget.
package flowlatencysrc

type services struct{}

type Content interface{ Init(svc *services) error }

type Registry struct{ factories map[string]func() Content }

func (r *Registry) Register(class string, f func() Content) error {
	r.factories[class] = f
	return nil
}

type src struct{}

func (s *src) Init(svc *services) error                    { return nil }
func (s *src) Invoke(itf, op string, arg any) (any, error) { return nil, nil }
func (s *src) Activate() error                             { return nil }

type slow struct{}

func (s *slow) Init(svc *services) error                    { return nil }
func (s *slow) Invoke(itf, op string, arg any) (any, error) { return nil, nil }
func (s *slow) Activate() error                             { return nil }

func Wire(r *Registry) error {
	if err := r.Register("src", func() Content { return &src{} }); err != nil { // want `SA09 .*exceeds the contract's latencyBudget`
		return err
	}
	return r.Register("slow", func() Content { return &slow{} })
}
