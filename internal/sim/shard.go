package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// InShard reports whether a spec is assigned to shard i of n. Assignment is
// deterministic and hash-stable: it depends only on the spec's content key
// (never on slice position, spec names, or process state), so every process
// that evaluates the same spec set agrees on the partition, and adding or
// removing unrelated specs never moves an existing spec between shards.
// n <= 1 means unsharded: every spec is in shard 0.
func InShard(spec RunSpec, i, n int) bool {
	if n <= 1 {
		return true
	}
	// The key is 32 hex characters; its first 16 (the hash's top 8 bytes)
	// are an unbiased uniform uint64.
	v, err := strconv.ParseUint(spec.Key()[:16], 16, 64)
	if err != nil {
		// Unreachable for a well-formed key; fall back to shard 0 so the
		// spec is never silently dropped from every shard.
		return i == 0
	}
	return v%uint64(n) == uint64(i)
}

// ParseShard parses an "i/n" shard flag value ("0/2", "1/2", ...). The
// empty string means unsharded and parses as (0, 1). i must satisfy
// 0 <= i < n.
func ParseShard(s string) (i, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	idx, count, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("sim: shard %q is not of the form i/n", s)
	}
	i, err = strconv.Atoi(idx)
	if err != nil {
		return 0, 0, fmt.Errorf("sim: shard index %q: %v", idx, err)
	}
	n, err = strconv.Atoi(count)
	if err != nil {
		return 0, 0, fmt.Errorf("sim: shard count %q: %v", count, err)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("sim: shard %q out of range: need 0 <= i < n", s)
	}
	return i, n, nil
}
