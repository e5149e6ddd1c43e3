package main

import "testing"

// TestAdvertiseURL: a host-less or wildcard -addr advertises the
// hostname, so flagless workers on different hosts get distinct member
// ids; an explicit host or -advertise is kept as given.
func TestAdvertiseURL(t *testing.T) {
	for _, tc := range []struct {
		advertise, addr, hostname, want string
	}{
		{"", ":8080", "w1", "http://w1:8080"},
		{"", ":8080", "w2", "http://w2:8080"},
		{"", "0.0.0.0:8080", "w1", "http://w1:8080"},
		{"", "[::]:8080", "w1", "http://w1:8080"},
		{"", ":8080", "", "http://127.0.0.1:8080"},
		{"", "127.0.0.1:18081", "w1", "http://127.0.0.1:18081"},
		{"", "10.0.0.7:8080", "w1", "http://10.0.0.7:8080"},
		{"http://w3:9000/", ":8080", "w1", "http://w3:9000"},
	} {
		if got := advertiseURL(tc.advertise, tc.addr, tc.hostname); got != tc.want {
			t.Errorf("advertiseURL(%q, %q, %q) = %q, want %q", tc.advertise, tc.addr, tc.hostname, got, tc.want)
		}
	}
}
