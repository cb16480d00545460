package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerDropsStalledHeadersNotSlowBodies: a peer that opens a connection
// and never finishes its headers is cut off once ReadHeaderTimeout passes,
// while an upload whose body takes several times that long still gets its
// answer. The test shortens the header deadline; everything else is the
// server main serves through.
func TestServerDropsStalledHeadersNotSlowBodies(t *testing.T) {
	const headerTimeout = 150 * time.Millisecond
	got := make(chan int, 1)
	hs := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		got <- int(n)
	}))
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.ReadTimeout != 0 {
		t.Fatalf("header %v idle %v body %v: want deadlines on headers and idle connections and none on bodies",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.ReadTimeout)
	}
	hs.ReadHeaderTimeout = headerTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed at Close below
	}()
	defer func() {
		_ = hs.Close()
		<-done
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /v1/label HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	_ = stalled.SetReadDeadline(time.Now().Add(20 * headerTimeout))
	if _, err := io.ReadAll(stalled); err != nil {
		t.Fatalf("the server kept a connection with unfinished headers open: %v", err)
	}

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	const chunks, chunk = 4, 1000
	if _, err := fmt.Fprintf(slow, "POST /v1/label HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", chunks*chunk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < chunks; i++ {
		time.Sleep(headerTimeout) // the upload itself is what takes the time
		if _, err := slow.Write(make([]byte, chunk)); err != nil {
			t.Fatalf("chunk %d of a slow body: %v", i, err)
		}
	}
	_ = slow.SetReadDeadline(time.Now().Add(20 * headerTimeout))
	resp, err := http.ReadResponse(bufio.NewReader(slow), nil)
	if err != nil {
		t.Fatalf("a body slower than the header deadline got no answer: %v", err)
	}
	resp.Body.Close()
	if n := <-got; resp.StatusCode != http.StatusOK || n != chunks*chunk {
		t.Fatalf("slow upload: status %d, handler read %d of %d bytes", resp.StatusCode, n, chunks*chunk)
	}
}
