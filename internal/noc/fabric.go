package noc

import (
	"fmt"

	"hmcsim/internal/sim"
)

// FuncOutlet adapts a pair of closures to the Outlet interface; the glue
// layer uses it to splice vault controllers and link egress ports into the
// fabric.
type FuncOutlet struct {
	Try    func(m *Message) bool
	Notify func(m *Message, fn func())
}

// TryOut implements Outlet.
func (f FuncOutlet) TryOut(m *Message) bool { return f.Try(m) }

// NotifyOut implements Outlet.
func (f FuncOutlet) NotifyOut(m *Message, fn func()) { f.Notify(m, fn) }

// Fabric is the assembled logic-layer network: a request network carrying
// host-to-vault traffic and a response network carrying vault-to-host
// traffic, each built from one router per quadrant plus an ingress
// channel per external link. Every edge that connects different
// quadrants — ingress into a home router, the quadrant full mesh, and
// router to link egress — is a bridge Chan.
type Fabric struct {
	cfg           Config
	nQuads        int
	vaultsPerQuad int
	linkHome      []int

	// ReqIngress[l] is the entry channel for requests arriving on link l.
	ReqIngress []*Chan
	// ReqRouters[q] is the request-network router of quadrant q.
	ReqRouters []*Router
	// RespRouters[q] is the response-network router of quadrant q.
	// Vault adapters inject responses here via TryOut.
	RespRouters []*Router
}

// NewFabric builds the two networks.
//
//   - linkHome[l] gives the quadrant where external link l attaches.
//   - ingressBound is each ingress channel's credit count; the caller's
//     link-level token pool keeps requests in flight below it.
//   - vaultOutlets[v] consumes requests for vault v (length nQuads *
//     vaultsPerQuad).
//   - linkEgress[l] consumes responses leaving on link l.
func NewFabric(eng *sim.Engine, cfg Config, nQuads, vaultsPerQuad int,
	linkHome []int, ingressBound int, vaultOutlets []Outlet, linkEgress []Outlet) *Fabric {

	nVaults := nQuads * vaultsPerQuad
	if len(vaultOutlets) != nVaults {
		panic(fmt.Sprintf("noc: %d vault outlets for %d vaults", len(vaultOutlets), nVaults))
	}
	if len(linkEgress) != len(linkHome) {
		panic(fmt.Sprintf("noc: %d egress outlets for %d links", len(linkEgress), len(linkHome)))
	}
	for _, h := range linkHome {
		if h < 0 || h >= nQuads {
			panic(fmt.Sprintf("noc: link home quadrant %d out of range", h))
		}
	}
	nLinks := len(linkHome)
	f := &Fabric{
		cfg:           cfg,
		nQuads:        nQuads,
		vaultsPerQuad: vaultsPerQuad,
		linkHome:      append([]int(nil), linkHome...),
		ReqIngress:    make([]*Chan, nLinks),
		ReqRouters:    make([]*Router, nQuads),
		RespRouters:   make([]*Router, nQuads),
	}

	// Request network. Router q's outlets: [0, vaultsPerQuad) local
	// vaults, then one slot per quadrant for the full-mesh peer bridges
	// (the self slot stays empty and is never routed to).
	for q := 0; q < nQuads; q++ {
		q := q
		outlets := make([]Outlet, vaultsPerQuad+nQuads)
		for i := 0; i < vaultsPerQuad; i++ {
			outlets[i] = vaultOutlets[q*vaultsPerQuad+i]
		}
		f.ReqRouters[q] = NewRouter(eng, fmt.Sprintf("req.q%d", q), cfg,
			func(m *Message) int {
				if m.Tr.Quadrant == q {
					return m.Tr.Vault % vaultsPerQuad
				}
				return vaultsPerQuad + m.Tr.Quadrant
			}, outlets)
	}
	for q := 0; q < nQuads; q++ {
		for p := 0; p < nQuads; p++ {
			if p != q {
				ch := NewChan(eng, fmt.Sprintf("req.q%d-q%d", q, p),
					cfg, cfg.InputBuffer, f.ReqRouters[p])
				// Hops stay counted by the owning router (Stall, not
				// Trace, avoids doubling).
				ch.Stall = cfg.Trace
				f.ReqRouters[q].SetChan(vaultsPerQuad+p, ch)
			}
		}
	}

	// Link ingress channels: requests deserialize on the link side and
	// bridge into the home quadrant's router. The link-level token pool
	// keeps each one below its credits (callers wire OnForward to
	// return those tokens), so InjectRequest never meets a refusal.
	for l := 0; l < nLinks; l++ {
		home := linkHome[l]
		f.ReqIngress[l] = NewChan(eng, fmt.Sprintf("req.in%d", l),
			cfg, ingressBound, f.ReqRouters[home])
		f.ReqIngress[l].Trace = cfg.Trace
	}

	// Response network. Router q's outlets: [0, nLinks) egress bridges
	// to the links (only wired for links homed at q), then one slot per
	// quadrant for peer bridges.
	for q := 0; q < nQuads; q++ {
		q := q
		outlets := make([]Outlet, nLinks+nQuads)
		f.RespRouters[q] = NewRouter(eng, fmt.Sprintf("resp.q%d", q), cfg,
			func(m *Message) int {
				home := f.linkHome[m.Tr.Link]
				if home == q {
					return m.Tr.Link
				}
				return nLinks + home
			}, outlets)
	}
	for q := 0; q < nQuads; q++ {
		for l := 0; l < nLinks; l++ {
			if linkHome[l] == q {
				ch := NewChan(eng, fmt.Sprintf("resp.q%d-out%d", q, l),
					cfg, cfg.InputBuffer, linkEgress[l])
				ch.Stall = cfg.Trace
				f.RespRouters[q].SetChan(l, ch)
			}
		}
		for p := 0; p < nQuads; p++ {
			if p != q {
				ch := NewChan(eng, fmt.Sprintf("resp.q%d-q%d", q, p),
					cfg, cfg.InputBuffer, f.RespRouters[p])
				ch.Stall = cfg.Trace
				f.RespRouters[q].SetChan(nLinks+p, ch)
			}
		}
	}
	return f
}

// InjectRequest places a request arriving on link l into the fabric. The
// caller is responsible for bounding in-flight requests below the
// ingress credits (the link RX token pool does this) and should set
// ReqIngress[l].OnForward to return those tokens; a refused request
// means that bound is broken, and panics.
func (f *Fabric) InjectRequest(l int, m *Message) {
	if !f.ReqIngress[l].TryOut(m) {
		panic(fmt.Sprintf("noc %s: ingress credits exhausted; the caller's admission control is broken", f.ReqIngress[l].name))
	}
}

// RespIngress returns the Outlet a vault in quadrant q uses to inject
// responses; injection is credit-checked against the router's input pool.
func (f *Fabric) RespIngress(q int) Outlet { return f.RespRouters[q] }

// QueuedMessages returns the total occupancy of every router and ingress
// channel, a debugging aid for conservation checks.
func (f *Fabric) QueuedMessages() int {
	n := 0
	for _, c := range f.ReqIngress {
		n += c.Queued()
	}
	for _, r := range f.ReqRouters {
		n += r.Queued()
	}
	for _, r := range f.RespRouters {
		n += r.Queued()
	}
	return n
}
