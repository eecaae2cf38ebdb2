package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingPreference pins the routing contract: every key yields a
// preference order containing each shard exactly once, the order is
// deterministic, and removing the home shard from consideration (the
// failover walk) never changes where the other shards fall.
func TestRingPreference(t *testing.T) {
	shards := []*shard{newShard("http://a", 1, nil), newShard("http://b", 1, nil), newShard("http://c", 1, nil)}
	r := newRing(shards)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("digest-%d", i)
		pref := r.prefer(key)
		if len(pref) != len(shards) {
			t.Fatalf("key %q: %d shards in preference order, want %d", key, len(pref), len(shards))
		}
		seen := map[*shard]bool{}
		for _, sh := range pref {
			if seen[sh] {
				t.Fatalf("key %q: shard %s appears twice", key, sh.url)
			}
			seen[sh] = true
		}
		if again := r.prefer(key); !reflect.DeepEqual(pref, again) {
			t.Fatalf("key %q: preference order not deterministic", key)
		}
	}
}

// TestRingAffinity checks the ring actually spreads keys: across many
// distinct keys every shard is some key's home — one shard owning
// everything would make the cluster a proxy, not a fabric.
func TestRingAffinity(t *testing.T) {
	shards := []*shard{newShard("http://a", 1, nil), newShard("http://b", 1, nil), newShard("http://c", 1, nil), newShard("http://d", 1, nil)}
	r := newRing(shards)
	homes := map[string]int{}
	for i := 0; i < 400; i++ {
		homes[r.prefer(fmt.Sprintf("digest-%d", i))[0].url]++
	}
	for _, sh := range shards {
		if homes[sh.url] == 0 {
			t.Errorf("shard %s is never a home shard: %v", sh.url, homes)
		}
	}
}
