package main

import (
	"fmt"
	"math/rand"
)

// zipfS is the read-key skew. At s=1.1 over a million keys about 60% of
// all reads land on the 256 hottest keys — the plan cache's default size —
// and about half of all reads hit the plan cache, so the ad-hoc read mix is
// split between plan-cache hits and misses.
const zipfS = 1.1

// writeShare is the fraction of wire operations that are durable inserts.
const writeShare = 0.10

// op is one client operation of the wire mix: a point read of a loaded key
// or an insert of a fresh key.
type op struct {
	write bool
	key   int64
}

// sql renders the op as the ad-hoc statement text a client sends.
func (o op) sql(seed int64) string {
	if o.write {
		return fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", o.key, valueOf(seed, o.key))
	}
	return fmt.Sprintf("SELECT v FROM kv WHERE k = %d", o.key)
}

// genOps returns the seed's op stream of n operations over a table of rows
// loaded keys (0..rows-1). Reads draw keys from a Zipf distribution whose
// rank r is key r; inserts take fresh keys rows, rows+1, ... in stream
// order, so no read ever targets a row the stream itself inserts and every
// read has exactly one known answer.
func genOps(seed int64, n, rows int) []op {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, zipfS, 1, uint64(rows-1))
	ops := make([]op, n)
	next := int64(rows)
	for i := range ops {
		if r.Float64() < writeShare {
			ops[i] = op{write: true, key: next}
			next++
			continue
		}
		ops[i] = op{key: int64(z.Uint64())}
	}
	return ops
}

// valueOf is the generator's key→value map: the v column of key k.
func valueOf(seed, k int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(k)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}
