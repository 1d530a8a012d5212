// Package server hosts shared visualization sessions over HTTP and
// WebSocket: many clients attach viewers to the same Extended
// relations, pan and zoom independently, and receive pushed frames
// when database writes invalidate what they are looking at. Reads run
// against immutable db.Snap catalog views, so a render in flight never
// blocks a writer and every frame is keyed by one consistent
// generation vector (DESIGN.md §13).
package server

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

// wsGUID is the fixed handshake GUID of RFC 6455 §1.3.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// WebSocket frame opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	OpText         = 0x1
	OpBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// maxWSPayload bounds a single message; canvas frames are far smaller.
const maxWSPayload = 1 << 26

// WSConn is one WebSocket connection, either side. Reads must come
// from a single goroutine; writes are internally serialized, so any
// goroutine may send.
type WSConn struct {
	c      net.Conn
	br     *bufio.Reader
	client bool // client side masks outgoing frames

	wmu    sync.Mutex
	closed bool
}

// Upgrade performs the server half of the WebSocket handshake,
// hijacking the HTTP connection.
func Upgrade(w http.ResponseWriter, r *http.Request) (*WSConn, error) {
	if !headerHasToken(r.Header, "Connection", "upgrade") || !headerHasToken(r.Header, "Upgrade", "websocket") {
		http.Error(w, "websocket upgrade required", http.StatusBadRequest)
		return nil, fmt.Errorf("server: not a websocket upgrade request: %w", ErrBadHandshake)
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		http.Error(w, "unsupported websocket version", http.StatusBadRequest)
		return nil, fmt.Errorf("server: unsupported websocket version %q: %w", r.Header.Get("Sec-WebSocket-Version"), ErrBadHandshake)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, fmt.Errorf("server: missing Sec-WebSocket-Key: %w", ErrBadHandshake)
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "hijacking unsupported", http.StatusInternalServerError)
		return nil, fmt.Errorf("server: response writer cannot hijack: %w", ErrBadHandshake)
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("server: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		conn.Close()
		return nil, err
	}
	if err := rw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	return &WSConn{c: conn, br: rw.Reader}, nil
}

// Dial opens a client WebSocket connection to a ws:// URL. It exists
// for tests and the load bench; it implements just enough of RFC 6455
// to talk to Upgrade (and to any compliant server).
func Dial(rawURL string) (*WSConn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("server: dial: %w", err)
	}
	if u.Scheme != "ws" {
		return nil, fmt.Errorf("server: dial: unsupported scheme %q: %w", u.Scheme, ErrBadHandshake)
	}
	host := u.Host
	if u.Port() == "" {
		host += ":80"
	}
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, fmt.Errorf("server: dial: %w", err)
	}
	keyBytes := make([]byte, 16)
	if _, err := rand.Read(keyBytes); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyBytes)
	path := u.RequestURI()
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: dial: reading status: %w", err)
	}
	if !strings.Contains(status, "101") {
		conn.Close()
		return nil, fmt.Errorf("server: dial: handshake refused (%s): %w", strings.TrimSpace(status), ErrBadHandshake)
	}
	var accept string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			conn.Close()
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(k), "Sec-WebSocket-Accept") {
			accept = strings.TrimSpace(v)
		}
	}
	if accept != acceptKey(key) {
		conn.Close()
		return nil, fmt.Errorf("server: dial: bad Sec-WebSocket-Accept: %w", ErrBadHandshake)
	}
	return &WSConn{c: conn, br: br, client: true}, nil
}

// acceptKey computes Sec-WebSocket-Accept for a handshake key.
func acceptKey(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// headerHasToken reports whether a comma-separated header contains a
// token, case-insensitively.
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// ReadMessage returns the next complete text or binary message,
// transparently answering pings and consuming pongs. It returns
// io.EOF after a clean close handshake.
func (ws *WSConn) ReadMessage() (op byte, payload []byte, err error) {
	var (
		msgOp  byte
		buffer []byte
	)
	for {
		fin, frameOp, data, err := ws.readFrame()
		if err != nil {
			return 0, nil, err
		}
		switch frameOp {
		case opPing:
			if err := ws.writeFrame(opPong, data); err != nil {
				return 0, nil, err
			}
			continue
		case opPong:
			continue
		case opClose:
			_ = ws.writeFrame(opClose, data) // echo; ignore error, peer may be gone
			return 0, nil, io.EOF
		case opContinuation:
			if msgOp == 0 {
				return 0, nil, fmt.Errorf("server: continuation frame without a message: %w", ErrProtocol)
			}
		case OpText, OpBinary:
			if msgOp != 0 {
				return 0, nil, fmt.Errorf("server: interleaved message frames: %w", ErrProtocol)
			}
			msgOp = frameOp
		default:
			return 0, nil, fmt.Errorf("server: unsupported opcode %#x: %w", frameOp, ErrProtocol)
		}
		buffer = append(buffer, data...)
		if len(buffer) > maxWSPayload {
			return 0, nil, fmt.Errorf("server: message exceeds %d bytes: %w", maxWSPayload, ErrProtocol)
		}
		if fin {
			return msgOp, buffer, nil
		}
	}
}

// readFrame reads one frame, unmasking if needed.
func (ws *WSConn) readFrame() (fin bool, op byte, payload []byte, err error) {
	var hdr [2]byte
	if _, err = io.ReadFull(ws.br, hdr[:]); err != nil {
		return false, 0, nil, err
	}
	fin = hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return false, 0, nil, fmt.Errorf("server: nonzero reserved bits: %w", ErrProtocol)
	}
	op = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(ws.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(ws.br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > maxWSPayload {
		return false, 0, nil, fmt.Errorf("server: frame exceeds %d bytes: %w", maxWSPayload, ErrProtocol)
	}
	var mask [4]byte
	if masked {
		if _, err = io.ReadFull(ws.br, mask[:]); err != nil {
			return false, 0, nil, err
		}
	}
	payload = make([]byte, length)
	if _, err = io.ReadFull(ws.br, payload); err != nil {
		return false, 0, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= mask[i%4]
		}
	}
	return fin, op, payload, nil
}

// WriteMessage sends one unfragmented message. Safe for concurrent
// use.
func (ws *WSConn) WriteMessage(op byte, payload []byte) error {
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	return ws.writeFrameLocked(op, payload)
}

// WritePair sends two messages back to back with no interleaving —
// the frame-meta/frame-bytes pair of the push protocol.
func (ws *WSConn) WritePair(op1 byte, p1 []byte, op2 byte, p2 []byte) error {
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	if err := ws.writeFrameLocked(op1, p1); err != nil {
		return err
	}
	return ws.writeFrameLocked(op2, p2)
}

func (ws *WSConn) writeFrame(op byte, payload []byte) error {
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	return ws.writeFrameLocked(op, payload)
}

func (ws *WSConn) writeFrameLocked(op byte, payload []byte) error {
	if ws.closed {
		return fmt.Errorf("server: write on closed websocket")
	}
	hdr := make([]byte, 0, 14)
	hdr = append(hdr, 0x80|op)
	maskBit := byte(0)
	if ws.client {
		maskBit = 0x80
	}
	switch {
	case len(payload) < 126:
		hdr = append(hdr, maskBit|byte(len(payload)))
	case len(payload) <= 0xFFFF:
		hdr = append(hdr, maskBit|126, byte(len(payload)>>8), byte(len(payload)))
	default:
		hdr = append(hdr, maskBit|127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(len(payload)))
		hdr = append(hdr, ext[:]...)
	}
	if ws.client {
		var mask [4]byte
		if _, err := rand.Read(mask[:]); err != nil {
			return err
		}
		hdr = append(hdr, mask[:]...)
		masked := make([]byte, len(payload))
		for i, b := range payload {
			masked[i] = b ^ mask[i%4]
		}
		payload = masked
	}
	if _, err := ws.c.Write(hdr); err != nil {
		return err
	}
	_, err := ws.c.Write(payload)
	return err
}

// Close sends a close frame (best effort) and closes the connection.
func (ws *WSConn) Close() error {
	ws.wmu.Lock()
	if !ws.closed {
		_ = ws.writeFrameLocked(opClose, nil)
		ws.closed = true
	}
	ws.wmu.Unlock()
	return ws.c.Close()
}
