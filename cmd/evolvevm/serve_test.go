package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeDisconnectsStalledHeaders: a client that opens a connection
// and never finishes its request headers is disconnected once the
// header bound passes, instead of holding the connection forever.
func TestServeDisconnectsStalledHeaders(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", http.NotFoundHandler())
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /v1/run HTTP/1.1\r\nHost: evolvevm\r\n")); err != nil {
		t.Fatal(err)
	}
	// Never send the blank line that ends the headers. The server must
	// close the connection; the read deadline only stops a hung test.
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open after %v: %v", time.Since(start), err)
	}
	if d := time.Since(start); d > readHeaderTimeout+2*time.Second {
		t.Errorf("disconnected after %v, bound is %v", d, readHeaderTimeout)
	}
}

// TestLoadtestWritesProfiles: the shared profile flags give loadtest a
// CPU profile alongside the contention profiles.
func TestLoadtestWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{}
	args := []string{"loadtest", "-requests", "24", "-tenants", "2", "-benches", "compress",
		"-corpus", "3", "-bench", "LoadTest"}
	for _, kind := range []string{"cpu", "mutex", "block"} {
		paths[kind] = filepath.Join(dir, kind+".pprof")
		args = append(args, "-"+kind+"profile", paths[kind])
	}
	if code, out := runCLI(t, args...); code != 0 {
		t.Fatalf("loadtest exit code %d:\n%s", code, out)
	}
	for kind, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("-%sprofile: %v", kind, err)
		} else if fi.Size() == 0 {
			t.Errorf("-%sprofile: %s is empty", kind, path)
		}
	}
}

// TestServingRejectsNegativeCounts: a negative count on a serving
// subcommand is a usage error (exit 2) naming the flag, not a silent
// fallback to the default; serve never starts listening.
func TestServingRejectsNegativeCounts(t *testing.T) {
	t.Parallel()
	const addr = "127.0.0.1:0" // should the check fail, serve binds nothing fixed
	for _, args := range [][]string{
		{"serve", "-workers", "-1", "-addr", addr},
		{"serve", "-queue", "-1", "-addr", addr},
		{"serve", "-epoch", "-1", "-addr", addr},
		{"serve", "-corpus", "-1", "-addr", addr},
		{"serve", "-tenant-cap", "-1", "-addr", addr},
		{"replay", "-workers", "-2"},
		{"replay", "-clients", "-1"},
		{"loadtest", "-queue", "-3"},
		{"loadtest", "-clients", "-1"},
		{"loadtest", "-requests", "-5"},
		{"loadtest", "-tenants", "-1"},
	} {
		code, out := runCLI(t, args...)
		if code != 2 {
			t.Errorf("%v: exit code %d, want 2; output:\n%s", args, code, out)
		}
		if !strings.Contains(out, args[1]+" "+args[2]+": must not be negative") || strings.Contains(out, "serving on") {
			t.Errorf("%v: want a usage error naming the flag, got:\n%s", args, out)
		}
	}
}
