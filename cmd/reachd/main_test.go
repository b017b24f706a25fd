package main

import (
	"net"
	"strings"
	"testing"

	"repro/internal/server"
)

// The stream listener defaults to any free port on the host -addr
// names, so a reachd bound to loopback does not also serve the stream
// transport to the network.
func TestDefaultMuxAddrFollowsAddrHost(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{":8080", ":0"},
		{"127.0.0.1:8080", "127.0.0.1:0"},
		{"[::1]:8080", "[::1]:0"},
		{"localhost:18081", "localhost:0"},
		{"0.0.0.0:80", "0.0.0.0:0"},
	} {
		got, err := defaultMuxAddr(tc.addr)
		if err != nil || got != tc.want {
			t.Errorf("defaultMuxAddr(%q) = %q, %v; want %q", tc.addr, got, err, tc.want)
		}
	}
	if _, err := defaultMuxAddr("8080"); err == nil {
		t.Error("defaultMuxAddr accepted an -addr without a port")
	}

	addr, err := defaultMuxAddr("127.0.0.1:8080")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if ip := ln.Addr().(*net.TCPAddr).IP; !ip.IsLoopback() {
		t.Errorf("listener for a loopback -addr bound %v, want a loopback address", ln.Addr())
	}
}

func TestRunRejectsEmptyMuxAddr(t *testing.T) {
	err := run("g.txt", "DL", false, ":8080", "", "", server.Config{})
	if err == nil || !strings.Contains(err.Error(), "-mux-addr") {
		t.Fatalf("run with an empty -mux-addr: %v, want a -mux-addr error", err)
	}
}
