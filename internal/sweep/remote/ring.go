package remote

import (
	"hash/fnv"
	"sort"
)

// vnodes is the number of ring points each admitted peer contributes.
const vnodes = 64

// ring is an immutable consistent-hash ring over peer indices. Each
// admitted peer contributes vnodes points, hashed from "id#i", so keys
// spread evenly and membership changes only move the ejected peer's
// shard. The Backend swaps in a freshly built ring on every membership
// change; lookups never lock.
type ring struct {
	points []ringPoint // sorted by hash
	peers  int         // distinct members
}

type ringPoint struct {
	hash uint64
	peer int // index into Backend.peers
}

// hash64 is the ring's hash: FNV-1a plus a MurmurHash3-style avalanche
// finalizer (raw FNV clusters badly on near-identical short strings
// like "peer-0#17"). It is stable across processes and rebuilds (unlike
// maphash), so a coordinator restart keeps routing the same shards to
// the same peers and their run caches stay hot.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// buildRing places vnodes points per member. ids is indexed by peer
// index; members lists the admitted subset.
func buildRing(ids []string, members []int, vnodes int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*vnodes), peers: len(members)}
	var buf []byte
	for _, m := range members {
		buf = append(buf[:0], ids[m]...)
		buf = append(buf, '#')
		n := len(buf)
		for v := 0; v < vnodes; v++ {
			buf = appendInt(buf[:n], v)
			r.points = append(r.points, ringPoint{hash: hash64(string(buf)), peer: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

func appendInt(b []byte, v int) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// candidates returns the distinct members that should serve key, in
// failover order: the owner (first point clockwise of the key's hash)
// first, then each subsequent distinct peer around the ring. An empty
// ring returns nil.
func (r *ring) candidates(key string) []int {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, r.peers)
	seen := make(map[int]bool, r.peers)
	for i := 0; i < len(r.points) && len(out) < r.peers; i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
