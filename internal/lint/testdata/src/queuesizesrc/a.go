// Corpus for the queuesizing (SA10) pass; the matching architecture
// lives in arch.xml next to this file. The code is conformant — the
// violations are architectural: Mill's two contracts admit more than
// its cost can process, and Press's buffer is smaller than what
// arrives between two of its draining releases.
package queuesizesrc

type services struct{}

type Content interface{ Init(svc *services) error }

type Registry struct{ factories map[string]func() Content }

func (r *Registry) Register(class string, f func() Content) error {
	r.factories[class] = f
	return nil
}

type genA struct{}

func (g *genA) Init(svc *services) error                    { return nil }
func (g *genA) Invoke(itf, op string, arg any) (any, error) { return nil, nil }
func (g *genA) Activate() error                             { return nil }

type genB struct{}

func (g *genB) Init(svc *services) error                    { return nil }
func (g *genB) Invoke(itf, op string, arg any) (any, error) { return nil, nil }
func (g *genB) Activate() error                             { return nil }

type mill struct{}

func (m *mill) Init(svc *services) error                    { return nil }
func (m *mill) Invoke(itf, op string, arg any) (any, error) { return nil, nil }
func (m *mill) Activate() error                             { return nil }

type press struct{}

func (p *press) Init(svc *services) error                    { return nil }
func (p *press) Invoke(itf, op string, arg any) (any, error) { return nil, nil }
func (p *press) Activate() error                             { return nil }

func Wire(r *Registry) error {
	if err := r.Register("genA", func() Content { return &genA{} }); err != nil {
		return err
	}
	if err := r.Register("genB", func() Content { return &genB{} }); err != nil {
		return err
	}
	if err := r.Register("mill", func() Content { return &mill{} }); err != nil { // want `SA10 .*admitted inbound rate 300/s exceeds Mill's processing capacity 250/s`
		return err
	}
	return r.Register("press", func() Content { return &press{} }) // want `SA10 .*inflow 80/s queues up to 2 messages between two releases of Press 20ms apart`
}
