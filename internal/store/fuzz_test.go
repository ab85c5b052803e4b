package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"talus/internal/adaptive"
)

// FuzzStoreBooks decodes bytes into store operations — Set, SetTTL,
// Get, Delete, a clock tick, admitting a value onto another key's line
// and evicting a key's line — on a 2-tenant store of 128 lines whose
// byte cap binds. After every operation each tenant's running books
// equal a recount over its lines, the tenants' bytes sum to
// Store.Bytes, which stays within MaxBytes, and no Get returns bytes
// written under another key. Set, SetTTL, Get and Delete go through the
// string entry points or, when bit 5 of their selector is set, the byte
// ones, on tenant and key bytes the next operation overwrites; bit 6 of
// the argument hands SetBytes a value whose capacity is its length,
// which it keeps rather than copies. Both paths run against the one
// model.
func FuzzStoreBooks(f *testing.F) {
	f.Add([]byte{0, 2, 40, 2, 2, 0, 4, 3, 2, 2, 2, 0, 2, 3, 0, 2, 2, 0})
	f.Add([]byte{1, 5, 63, 6, 0, 20, 2, 5, 0, 0, 7, 60, 0, 9, 61, 0, 11, 62, 5, 7, 0, 2, 7, 0})
	// a/k3 onto k8's line: neither Get reads it, then a/k8's Set takes
	// the line back.
	f.Add([]byte{4, 6, 8, 2, 16, 0, 2, 6, 0, 0, 16, 5, 2, 16, 0, 3, 16, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxBytes = 512
		ac, err := adaptive.Build("vantage", 128, 16, 1, 2, 0.05, adaptive.Config{EpochAccesses: 256, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(ac, Config{Tenants: []string{"a", "b"}, MaxBytes: maxBytes})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		now := time.Unix(1, 0)
		s.SetNow(func() time.Time { return now })
		var tenantBuf, keyBuf []byte // the byte entry points' arguments

		for i := 0; i+3 <= len(ops); i += 3 {
			op, sel, arg := ops[i]%7, ops[i+1], ops[i+2]
			tenant := []string{"a", "b"}[sel&1]
			key := fmt.Sprintf("k%d", (sel>>1)%16)
			t0 := s.roster.Load().byName[tenant]
			// Every value written under (tenant, key) starts with prefix.
			prefix := tenant + "/" + key + ":"
			value := append([]byte(prefix), bytes.Repeat([]byte{'v'}, int(arg%64))...)
			if arg&0x40 != 0 {
				value = value[:len(value):len(value)]
			}
			viaBytes := sel&0x20 != 0
			tenantBuf, keyBuf = append(tenantBuf[:0], tenant...), append(keyBuf[:0], key...)
			var desc string
			switch op {
			case 0, 1:
				desc = "Set"
				var ttl time.Duration
				if op == 1 {
					desc, ttl = "SetTTL", time.Duration(arg%4)*time.Second
				}
				switch {
				case viaBytes:
					desc = "SetBytes"
					_, err = s.SetBytes(tenantBuf, keyBuf, value, ttl)
				case op == 0:
					_, err = s.Set(tenant, key, value)
				default:
					_, err = s.SetTTL(tenant, key, value, ttl)
				}
			case 2:
				desc = "Get"
				var v []byte
				if viaBytes {
					desc = "GetBytes"
					v, _, err = s.GetBytes(tenantBuf, keyBuf)
				} else {
					v, _, err = s.Get(tenant, key)
				}
				if err == nil && !bytes.HasPrefix(v, []byte(prefix)) {
					t.Fatalf("op %d: %s %s/%s read %q", i/3, desc, tenant, key, v)
				}
				if errors.Is(err, ErrNotFound) {
					err = nil
				}
			case 3:
				desc = "Delete"
				if viaBytes {
					desc = "DeleteBytes"
					_, err = s.DeleteBytes(tenantBuf, keyBuf)
				} else {
					_, err = s.Delete(tenant, key)
				}
			case 4:
				other := fmt.Sprintf("k%d", arg%16)
				desc = "admit onto " + other + "'s line"
				admit(s, t0, key, hashKey(other), value, 0)
			case 5:
				desc = "evict"
				s.onEvict(t0.part, hashKey(key)|t0.space)
			case 6:
				desc = "tick"
				now = now.Add(time.Duration(arg) * 100 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("op %d: %s %s/%s: %v", i/3, desc, tenant, key, err)
			}
			var total int64
			for _, name := range []string{"a", "b"} {
				keys, held := Recount(s, name)
				st, err := s.Stats(name)
				if err != nil {
					t.Fatal(err)
				}
				if st.Keys != keys || st.Bytes != held {
					t.Fatalf("op %d (%s %s/%s): %s stats %d keys/%d bytes, recount %d/%d",
						i/3, desc, tenant, key, name, st.Keys, st.Bytes, keys, held)
				}
				total += held
			}
			if s.Bytes() != total || total > maxBytes {
				t.Fatalf("op %d (%s %s/%s): Store.Bytes %d, recount %d, MaxBytes %d",
					i/3, desc, tenant, key, s.Bytes(), total, maxBytes)
			}
		}
	})
}
