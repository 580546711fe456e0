// Package hmc assembles the full Hybrid Memory Cube model: external
// serial links, the logic-layer NoC, and sixteen vault controllers with
// their DRAM banks. It is the device under study; the host-side FPGA
// model in internal/host drives it.
package hmc

import (
	"fmt"

	"hmcsim/internal/addr"
	"hmcsim/internal/link"
	"hmcsim/internal/noc"
	"hmcsim/internal/obs"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
	"hmcsim/internal/vault"
)

// Config describes one cube and its link attach points.
type Config struct {
	Links    int   // external links (the AC-510 uses 2)
	LinkHome []int // quadrant where each link enters the fabric
	LinkCfg  link.Config

	// ReqRxBufFlits sizes the cube-side link input buffer. It is
	// deliberately modest: when vault queues fill, back-pressure must
	// reach the host quickly so excess requests queue on the FPGA, as the
	// paper's Little's-law analysis (Figure 14) implies.
	ReqRxBufFlits int
	// RespRxBufFlits sizes the host-side response buffer (the link's
	// other direction); the host releases it as its controller drains
	// responses.
	RespRxBufFlits int

	NoC   noc.Config
	Vault vault.Config // template; ID is overwritten per vault

	// Trace, when non-nil, hands each vault, link direction and the
	// fabric a tracer from this system-level aggregate. Nil (the
	// default) builds an untraced cube.
	Trace *obs.SystemTracer
}

// DefaultConfig returns the 4 GB HMC 1.1 Gen2 configuration on an
// AC-510: two half-width 15 Gbps links entering quadrants 0 and 2.
func DefaultConfig() Config {
	return Config{
		Links:          2,
		LinkHome:       []int{0, 2},
		LinkCfg:        link.DefaultConfig(),
		ReqRxBufFlits:  12,
		RespRxBufFlits: 5184, // 576 max-size (9-flit) responses
		NoC:            noc.DefaultConfig(),
		Vault:          vault.DefaultConfig(0),
	}
}

// HMC is the assembled cube.
type HMC struct {
	eng    *sim.Engine
	cfg    Config
	links  []*link.Link
	fabric *noc.Fabric
	vaults []*vault.Vault

	deliverResp func(*packet.Packet)

	// free holds the fabric messages not in use. The cube makes and ends
	// every message its fabric carries: one per request from link
	// ingress to its vault, and one per response attempt from a vault to
	// link egress. made counts the messages ever allocated; once the cube
	// drains, free holds all of them.
	free []*noc.Message
	made int

	reqsIn   uint64
	respsOut uint64
}

// New builds the cube on eng. deliverResp receives response packets on
// the host side of the links; the host must call ReleaseResp when it
// drains each packet from the link's receive buffer.
func New(eng *sim.Engine, cfg Config, deliverResp func(*packet.Packet)) *HMC {
	if cfg.Links != len(cfg.LinkHome) {
		panic(fmt.Sprintf("hmc: %d links but %d homes", cfg.Links, len(cfg.LinkHome)))
	}
	h := &HMC{
		eng:         eng,
		cfg:         cfg,
		links:       make([]*link.Link, cfg.Links),
		vaults:      make([]*vault.Vault, addr.Vaults),
		deliverResp: deliverResp,
	}

	// Links: the request direction's receive buffer is the cube's input
	// buffer; the response direction's receive buffer belongs to the
	// host.
	for l := 0; l < cfg.Links; l++ {
		l := l
		reqCfg := cfg.LinkCfg
		reqCfg.RxBufFlits = cfg.ReqRxBufFlits
		reqCfg.Seed = cfg.LinkCfg.Seed + uint64(l)*16 + 1
		respCfg := cfg.LinkCfg
		respCfg.RxBufFlits = cfg.RespRxBufFlits
		respCfg.Seed = cfg.LinkCfg.Seed + uint64(l)*16 + 2
		if cfg.Trace != nil {
			reqCfg.Trace = cfg.Trace.Link(fmt.Sprintf("link%d.req", l))
			respCfg.Trace = cfg.Trace.Link(fmt.Sprintf("link%d.resp", l))
		}
		h.links[l] = &link.Link{
			ID:   l,
			Req:  link.NewDir(eng, fmt.Sprintf("link%d.req", l), reqCfg, func(p *packet.Packet) { h.receiveRequest(l, p) }),
			Resp: link.NewDir(eng, fmt.Sprintf("link%d.resp", l), respCfg, deliverResp),
		}
	}

	// Vault controllers and their fabric adapters. The vault is the end
	// of the request's trip: once the controller accepts the transaction,
	// its fabric message goes back to the free list.
	vaultOutlets := make([]noc.Outlet, addr.Vaults)
	for v := 0; v < addr.Vaults; v++ {
		v := v
		quad := v / addr.VaultsPerQuad
		vcfg := cfg.Vault
		vcfg.ID = v
		if cfg.Trace != nil {
			vcfg.Trace = cfg.Trace.Vault(v)
		}
		vlt := vault.New(eng, vcfg, &respAdapter{h: h, quad: quad})
		h.vaults[v] = vlt
		vaultOutlets[v] = noc.FuncOutlet{
			Try: func(m *noc.Message) bool {
				if !vlt.TryAccept(m.Tr) {
					return false
				}
				h.release(m)
				return true
			},
			Notify: func(_ *noc.Message, fn func()) { vlt.NotifyAccept(fn) },
		}
	}

	// Link egress adapters: responses leave through the links' response
	// direction, flow-controlled by the host-side buffer tokens. The
	// packet rides the link onward; the fabric message ends here.
	linkEgress := make([]noc.Outlet, cfg.Links)
	for l := 0; l < cfg.Links; l++ {
		l := l
		linkEgress[l] = noc.FuncOutlet{
			Try: func(m *noc.Message) bool {
				if !h.links[l].Resp.TrySend(m.Pkt) {
					return false
				}
				h.respsOut++
				h.release(m)
				return true
			},
			Notify: func(_ *noc.Message, fn func()) { h.links[l].Resp.NotifyTokens(fn) },
		}
	}

	nocCfg := cfg.NoC
	if cfg.Trace != nil {
		nocCfg.Trace = &cfg.Trace.NoC
	}
	h.fabric = noc.NewFabric(eng, nocCfg, addr.Quadrants, addr.VaultsPerQuad,
		cfg.LinkHome, cfg.ReqRxBufFlits, vaultOutlets, linkEgress)

	// Returning cube-side link tokens once a request leaves the ingress
	// staging node is what lets the next request deserialize.
	for l := 0; l < cfg.Links; l++ {
		l := l
		h.fabric.ReqIngress[l].OnForward = func(flits int) {
			h.links[l].Req.Release(flits)
		}
	}
	return h
}

// respAdapter injects vault completions into the response network.
type respAdapter struct {
	h    *HMC
	quad int
}

func (a *respAdapter) TryOut(tr *packet.Transaction) bool {
	m := a.h.message(tr, tr.ResponsePacket(tr.Tag))
	if !a.h.fabric.RespIngress(a.quad).TryOut(m) {
		// Refused: the fabric did not take the message, so it goes
		// straight back to the free list.
		a.h.release(m)
		return false
	}
	return true
}

func (a *respAdapter) NotifyOut(tr *packet.Transaction, fn func()) {
	// NotifyOut only routes the message to find the right credit pool; it
	// does not retain it, so a transient message without a packet
	// suffices: response routing reads only the transaction.
	m := a.h.message(tr, nil)
	a.h.fabric.RespIngress(a.quad).NotifyOut(m, fn)
	a.h.release(m)
}

// message returns a fabric message carrying tr and pkt, from the free
// list when it has one.
func (h *HMC) message(tr *packet.Transaction, pkt *packet.Packet) *noc.Message {
	var m *noc.Message
	if n := len(h.free); n > 0 {
		m = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		m = new(noc.Message)
		h.made++
	}
	m.Tr, m.Pkt = tr, pkt
	return m
}

// release returns m to the free list; nothing may touch it afterwards.
func (h *HMC) release(m *noc.Message) {
	*m = noc.Message{}
	h.free = append(h.free, m)
}

// receiveRequest handles a request packet arriving on link l.
func (h *HMC) receiveRequest(l int, p *packet.Packet) {
	tr := p.Tr
	if tr == nil {
		panic("hmc: request packet without transaction")
	}
	h.reqsIn++
	tr.TLinkTx = h.eng.Now()
	h.fabric.InjectRequest(l, h.message(tr, p))
}

// ReqDir returns the request direction of link l; the host controller
// sends request packets into it with TrySend.
func (h *HMC) ReqDir(l int) *link.Dir { return h.links[l].Req }

// ReleaseResp returns host-side response-buffer space after the host has
// consumed a packet of the given flit count from link l.
func (h *HMC) ReleaseResp(l, flits int) { h.links[l].Resp.Release(flits) }

// Vault returns vault v for statistics and tests.
func (h *HMC) Vault(v int) *vault.Vault { return h.vaults[v] }

// Fabric exposes the NoC for statistics and tests.
func (h *HMC) Fabric() *noc.Fabric { return h.fabric }

// Link returns link l.
func (h *HMC) Link(l int) *link.Link { return h.links[l] }

// Links returns the number of external links.
func (h *HMC) Links() int { return h.cfg.Links }

// InFlight returns the number of transactions currently inside the cube:
// accepted from the links but not yet sent back. It is the quantity the
// paper estimates with Little's law in Figure 14.
func (h *HMC) InFlight() int { return int(h.reqsIn - h.respsOut) }
