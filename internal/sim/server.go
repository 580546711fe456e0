package sim

// Server models a resource that serves one item at a time for a fixed or
// per-item duration: a bus, a port, a DRAM data path. Work is serialized:
// a reservation made while the server is busy begins when the previous one
// ends.
type Server struct {
	eng  *Engine
	free Time // earliest time the next reservation may start

	busyArea float64 // integral of busy time, for utilization
}

// NewServer returns a Server bound to eng, idle at time zero.
func NewServer(eng *Engine) *Server { return &Server{eng: eng} }

// Reserve books the server for dur starting no earlier than now, returns
// the completion time, and schedules done (if non-nil) at that time.
// Completions fire in Reserve order.
func (s *Server) Reserve(dur Time, done func()) Time {
	start := s.eng.Now()
	if s.free > start {
		start = s.free
	}
	end := start + dur
	s.free = end
	s.busyArea += float64(dur)
	if done != nil {
		s.eng.At(end, done)
	}
	return end
}

// Utilization returns the fraction of [0, now] the server was busy.
func (s *Server) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	busy := s.busyArea
	if s.free > now {
		busy -= float64(s.free - now) // portion booked beyond now
	}
	if busy < 0 {
		busy = 0
	}
	return busy / float64(now)
}
