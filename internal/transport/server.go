package transport

import (
	"fmt"
	"net"
	"sync"

	"streampca/internal/faults"
)

// Handler processes one accepted connection. It should return when the
// connection fails or the server shuts down (the conn is closed under it).
type Handler func(*Conn)

// Server accepts TCP connections and hands each to a Handler. Shutdown
// closes the listener and every live connection, then waits for handlers.
type Server struct {
	listener net.Listener
	handler  Handler
	metrics  *Metrics
	faults   faults.Injector

	mu    sync.Mutex
	conns map[*Conn]struct{}
	done  bool

	wg sync.WaitGroup
}

// Listen starts a server on addr (e.g. "127.0.0.1:0").
func Listen(addr string, handler Handler) (*Server, error) {
	return ListenWithOptions(addr, handler, nil, nil)
}

// ListenWithOptions is Listen with wire instrumentation on m and a fault
// injector installed on every accepted connection (both may be nil; a nil
// injector is the production no-op).
func ListenWithOptions(addr string, handler Handler, m *Metrics, inj faults.Injector) (*Server, error) {
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrBadMessage)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	s := &Server{
		listener: ln,
		handler:  handler,
		metrics:  m,
		faults:   inj,
		conns:    make(map[*Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.listener.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		raw, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		conn := NewConnWithMetrics(raw, s.metrics)
		if s.faults != nil {
			conn.SetFaults(s.faults)
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				_ = conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handler(conn)
		}()
	}
}

// Shutdown stops accepting, closes all connections and waits for handlers to
// return.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.done = true
	_ = s.listener.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
