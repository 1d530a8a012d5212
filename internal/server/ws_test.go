package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// echoServer upgrades and echoes every message back with opcode intact.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		for {
			op, payload, err := ws.ReadMessage()
			if err != nil {
				return
			}
			if err := ws.WriteMessage(op, payload); err != nil {
				return
			}
		}
	}))
}

func wsURL(srv *httptest.Server) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http")
}

func TestWSEchoRoundTrip(t *testing.T) {
	srv := echoServer(t)
	defer srv.Close()
	ws, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	// Small (7-bit length), medium (16-bit), and large (64-bit) payloads
	// exercise all three header encodings, masked both ways.
	sizes := []int{0, 1, 125, 126, 4096, 65535, 65536, 1 << 17}
	for _, n := range sizes {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i * 31)
		}
		if err := ws.WriteMessage(OpBinary, msg); err != nil {
			t.Fatalf("write %d: %v", n, err)
		}
		op, got, err := ws.ReadMessage()
		if err != nil {
			t.Fatalf("read %d: %v", n, err)
		}
		if op != OpBinary || !bytes.Equal(got, msg) {
			t.Fatalf("echo %d bytes: op=%d len=%d", n, op, len(got))
		}
	}
	if err := ws.WriteMessage(OpText, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	op, got, err := ws.ReadMessage()
	if err != nil || op != OpText || string(got) != "hello" {
		t.Fatalf("text echo: op=%d got=%q err=%v", op, got, err)
	}
}

func TestWSPingHandledTransparently(t *testing.T) {
	srv := echoServer(t)
	defer srv.Close()
	ws, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	// The server's read loop must answer the ping itself; the next real
	// message still round-trips.
	if err := ws.WriteMessage(opPing, []byte("are you there")); err != nil {
		t.Fatal(err)
	}
	if err := ws.WriteMessage(OpText, []byte("after ping")); err != nil {
		t.Fatal(err)
	}
	op, got, err := ws.ReadMessage()
	if err != nil || op != OpText || string(got) != "after ping" {
		t.Fatalf("after ping: op=%d got=%q err=%v", op, got, err)
	}
}

func TestWSCloseHandshake(t *testing.T) {
	srv := echoServer(t)
	defer srv.Close()
	ws, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.ReadMessage(); err == nil {
		t.Fatal("read after close should fail")
	}
}

func TestWSWritePairStaysAdjacent(t *testing.T) {
	// A server goroutine hammers standalone messages while the main
	// goroutine sends meta/payload pairs; every pair must arrive with
	// its halves adjacent.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ws, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer ws.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				if ws.WriteMessage(OpText, []byte("noise")) != nil {
					return
				}
			}
		}()
		for i := 0; i < 50; i++ {
			if ws.WritePair(OpText, []byte("meta"), OpBinary, []byte("payload")) != nil {
				break
			}
		}
		<-done
		ws.WriteMessage(OpText, []byte("done"))
		// Hold the connection until the client has read everything.
		ws.ReadMessage()
	}))
	defer srv.Close()
	ws, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	pairs := 0
	for {
		op, payload, err := ws.ReadMessage()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if op == OpText && string(payload) == "done" {
			break
		}
		if op == OpText && string(payload) == "meta" {
			op2, p2, err := ws.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			if op2 != OpBinary || string(p2) != "payload" {
				t.Fatalf("pair split: next message op=%d %q", op2, p2)
			}
			pairs++
		}
	}
	if pairs != 50 {
		t.Fatalf("got %d intact pairs, want 50", pairs)
	}
}

func TestUpgradeRejectsPlainGET(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Error("Upgrade accepted a plain GET")
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestAcceptKey(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("acceptKey = %q, want %q", got, want)
	}
}

// TestReadMessageProtocolViolations: every malformed frame ReadMessage
// rejects wraps ErrProtocol.
func TestReadMessageProtocolViolations(t *testing.T) {
	oversized := []byte{0x80 | OpBinary, 127, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint64(oversized[2:], maxWSPayload+1)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"reserved bits", []byte{0x80 | 0x40 | OpBinary, 0}},
		{"oversized frame", oversized},
		{"continuation without a message", []byte{0x80 | opContinuation, 0}},
		{"unsupported opcode", []byte{0x80 | 0x3, 0}},
	} {
		ws := &WSConn{br: bufio.NewReader(bytes.NewReader(tc.frame))}
		if _, _, err := ws.ReadMessage(); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: ReadMessage error %v does not wrap ErrProtocol", tc.name, err)
		}
	}
}
