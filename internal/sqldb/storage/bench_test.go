package storage

import (
	"path/filepath"
	"testing"
)

func BenchmarkPoolGetHit(b *testing.B) {
	var clock Clock
	f, err := CreatePagedFile(filepath.Join(b.TempDir(), "p.pg"), RAM, &clock)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	pool := NewPool(64)
	pool.Register(f)
	stampPages(b, f, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Get(f, 0); err != nil {
			b.Fatal(err)
		}
	}
}
