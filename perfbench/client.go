package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"gmp/internal/wire"
)

// session is one pipelined client connection to gmpd: requests go out as
// the generator schedules them and a reader goroutine matches answers by
// request ID, so many requests can be in flight on one connection. The
// client-side wire codec calls are traced as "wire.encode" and
// "wire.decode" spans when the session has a tracer.
type session struct {
	conn net.Conn
	gen  *generator
	// build returns the message type and body of request id, the phase's
	// request i; it runs under the "wire.encode" span.
	build func(id uint64, i int) (byte, []byte)
	// answer inspects a terminal answer; it runs on the reader goroutine.
	answer func(id uint64, m wire.Msg, decoded any)

	mu       sync.Mutex // guards t, bytesOut and the write path
	t        *tracer
	bytesOut int64
	out      []byte

	readErr error // an answer that did not decode
	done    chan struct{}
}

// dialSession connects and completes the HELLO handshake for protocol.
func dialSession(addr, protocol string, gen *generator) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	hello := wire.AppendMsg(nil, wire.Msg{Type: wire.MsgHello, ID: 0,
		Body: wire.EncodeHello(wire.HelloBody{Version: wire.SessionVersion, Protocol: protocol})})
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	m, err := wire.ReadMsg(br)
	if err != nil || m.Type != wire.MsgHello {
		conn.Close()
		return nil, fmt.Errorf("hello: answer %s, %v", wire.MsgName(m.Type), err)
	}
	conn.SetDeadline(time.Time{})
	s := &session{conn: conn, gen: gen, done: make(chan struct{})}
	go s.read(br)
	return s, nil
}

// setTracer turns span recording on (non-nil) or off.
func (s *session) setTracer(t *tracer) {
	s.mu.Lock()
	s.t = t
	s.mu.Unlock()
}

func (s *session) send(id uint64, i int) error {
	select {
	case <-s.done:
		return net.ErrClosed
	default:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var start int64
	if s.t != nil {
		start = s.t.now()
	}
	typ, body := s.build(id, i)
	s.out = wire.AppendMsg(s.out[:0], wire.Msg{Type: typ, ID: id, Body: body})
	if s.t != nil {
		s.t.add("wire.encode", -1, int64(id), start, s.t.now())
	}
	s.bytesOut += int64(len(s.out))
	_, err := s.conn.Write(s.out)
	return err
}

// msgBytes is a message's size on the wire: type, ID, length, body.
func msgBytes(m wire.Msg) int { return 1 + 8 + 4 + len(m.Body) }

func (s *session) read(br *bufio.Reader) {
	defer close(s.done)
	defer s.gen.lost(s)
	for {
		m, err := wire.ReadMsg(br)
		if err != nil {
			// The connection ended: closed by either side, or reset by a
			// daemon evicting a client that read too slowly. Its requests
			// fail as transport errors (see generator.lost).
			return
		}
		if m.Type == wire.MsgDrain {
			continue // the daemon closes the session once drained
		}
		s.mu.Lock()
		t := s.t
		s.mu.Unlock()
		var start int64
		if t != nil {
			start = t.now()
		}
		decoded, derr := decodeAnswer(m)
		if t != nil {
			t.add("wire.decode", -1, int64(m.ID), start, t.now())
		}
		if derr != nil {
			s.readErr = derr
			return
		}
		if m.Type == wire.MsgHop {
			s.gen.observe(m.ID, msgBytes(m))
			continue
		}
		out := outOK
		switch m.Type {
		case wire.MsgShed:
			out = outShed
		case wire.MsgError:
			out = outError
		}
		if s.gen.complete(m.ID, out, msgBytes(m)) && s.answer != nil {
			s.answer(m.ID, m, decoded)
		}
	}
}

// decodeAnswer decodes one server message with the wire package.
func decodeAnswer(m wire.Msg) (any, error) {
	switch m.Type {
	case wire.MsgHop:
		return wire.DecodeHop(m.Body)
	case wire.MsgForwards:
		return wire.DecodeForwards(m.Body)
	case wire.MsgRouteDone:
		return wire.DecodeRouteDone(m.Body)
	case wire.MsgError:
		return wire.DecodeError(m.Body)
	case wire.MsgShed:
		return wire.DecodeShed(m.Body)
	}
	return nil, fmt.Errorf("unexpected %s answer", wire.MsgName(m.Type))
}

// closeAndWait closes the connection and waits for the reader to exit.
func (s *session) closeAndWait() error {
	s.conn.Close()
	<-s.done
	return s.readErr
}

// waitClosed waits for the server to close the connection (after a drain)
// and returns the reader's error, if any.
func (s *session) waitClosed(limit time.Duration) error {
	select {
	case <-s.done:
		return s.readErr
	case <-time.After(limit):
		return s.closeAndWait()
	}
}
