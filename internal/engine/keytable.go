package engine

import "lantern/internal/datum"

// keyTable is the batch executor's one hashing structure (see "Hashing and
// the key equality" in doc.go). Each distinct key, a tuple of width
// datums, is stored once at id*width in a datum arena, under a dense id in
// first-arrival order. A power-of-two array of bucket heads and an int32
// chain per id find it (Leis et al., "Morsel-Driven Parallelism", SIGMOD
// 2014); the chain keeps each id's hash, so a walk compares datums only on
// a full hash match and growing rehashes no key. Lookups write nothing,
// so goroutines may share a filled table.
type keyTable struct {
	width int
	keys  []datum.D
	chain []keyLink // per id
	heads []int32   // per bucket: its newest id, or -1
	shift uint8     // 64 - log2(len(heads))
}

type keyLink struct {
	hash uint64
	next int32 // the bucket's next older id, or -1
}

// hashKey combines the datum.Hash of each datum of key, so keys equal
// under compareKeys hash alike.
func hashKey(key []datum.D) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range key {
		h = h*1099511628211 ^ v.Hash()
	}
	return h
}

// reset empties t for keys of width datums, sized to take capacity keys
// without growing.
func (t *keyTable) reset(width, capacity int) {
	*t = keyTable{width: width, keys: make([]datum.D, 0, capacity*width), chain: make([]keyLink, 0, capacity)}
	t.rehash(capacity)
}

// find returns the id of key, whose hashKey is h, or -1.
func (t *keyTable) find(key []datum.D, h uint64) int32 {
	for id := t.heads[t.bucket(h)]; id >= 0; id = t.chain[id].next {
		if t.chain[id].hash == h && compareKeys(key, t.keys[int(id)*t.width:]) == 0 {
			return id
		}
	}
	return -1
}

// insert returns the id of key, whose hashKey is h, and whether the table
// lacked key and copied it in under the next id.
func (t *keyTable) insert(key []datum.D, h uint64) (int32, bool) {
	if id := t.find(key, h); id >= 0 {
		return id, false
	}
	if len(t.chain) >= len(t.heads) {
		t.rehash(2 * len(t.chain))
	}
	id := int32(len(t.chain))
	t.chain = append(t.chain, keyLink{hash: h})
	t.keys = append(t.keys, key...)
	t.link(id)
	return id, true
}

// rehash gives t at least n buckets, and eight at the least, and links
// every id again.
func (t *keyTable) rehash(n int) {
	size, shift := 8, uint8(61)
	for size < n {
		size, shift = 2*size, shift-1
	}
	t.heads, t.shift = make([]int32, size), shift
	for b := range t.heads {
		t.heads[b] = -1
	}
	for id := range t.chain {
		t.link(int32(id))
	}
}

// bucket spreads a hash's bits over the bucket index (Fibonacci hashing).
func (t *keyTable) bucket(h uint64) uint64 { return (h * 0x9e3779b97f4a7c15) >> t.shift }

// link puts id at the head of its hash's bucket.
func (t *keyTable) link(id int32) {
	b := t.bucket(t.chain[id].hash)
	t.chain[id].next, t.heads[b] = t.heads[b], id
}
