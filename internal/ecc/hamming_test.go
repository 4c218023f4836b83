package ecc

import "testing"

func TestHammingCheckBitCounts(t *testing.T) {
	// Classic Hamming parameters: 4 data → 3 check, 11 → 4, 26 → 5, 57 → 6.
	for _, tc := range [][2]int{{4, 3}, {8, 4}, {11, 4}, {26, 5}, {57, 6}, {64, 7}} {
		if got := hammingCheckBits(tc[0]); got != tc[1] {
			t.Errorf("hammingCheckBits(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

func TestHammingIndexInverse(t *testing.T) {
	for i := 0; i < 64; i++ {
		idx := hammingIndex(i)
		if idx&(idx-1) == 0 {
			t.Fatalf("data bit %d mapped to power-of-two index %d", i, idx)
		}
		if got := dataPosOf(idx); got != i {
			t.Fatalf("dataPosOf(hammingIndex(%d)) = %d", i, got)
		}
	}
}
