package obs

import (
	"bytes"
	"testing"
)

func TestHistogramMerge(t *testing.T) {
	a := &Histogram{Name: "lat"}
	for _, v := range []uint64{0, 3, 8} {
		a.Observe(v)
	}
	b := &Histogram{Name: "lat"}
	for _, v := range []uint64{1, 1000} {
		b.Observe(v)
	}
	a.Merge(b)
	if a.Count() != 5 || a.Sum() != 1012 || a.Min() != 0 || a.Max() != 1000 {
		t.Fatalf("merged: count=%d sum=%d min=%d max=%d", a.Count(), a.Sum(), a.Min(), a.Max())
	}
	want := []Bucket{{0, 0, 1}, {1, 1, 1}, {2, 3, 1}, {8, 15, 1}, {512, 1023, 1}}
	got := a.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Merging into an empty histogram must adopt o's min, not keep 0.
	c := &Histogram{Name: "lat"}
	c.Merge(b)
	if c.Min() != 1 || c.Max() != 1000 || c.Count() != 2 {
		t.Errorf("empty.Merge: min=%d max=%d count=%d, want 1/1000/2", c.Min(), c.Max(), c.Count())
	}

	// Nil receiver and nil/empty argument are all no-ops.
	var nilH *Histogram
	nilH.Merge(b)
	before := *a
	a.Merge(nil)
	a.Merge(&Histogram{})
	if *a != before {
		t.Error("merging nil/empty histograms changed the receiver")
	}
}

// TestWriteCSVGolden pins the exact byte output of WriteCSV: the CSV is
// consumed by external tooling, so its shape is a compatibility surface.
func TestWriteCSVGolden(t *testing.T) {
	m := NewMetrics(Config{MetricsInterval: 100})
	m.Sample(100, map[string]uint64{"net.msgs": 7, "l1d.misses": 2})
	m.Sample(200, map[string]uint64{"net.msgs": 19, "cycles": 200})
	h := m.Hist("dir.episode_len")
	for _, v := range []uint64{0, 5, 5, 900} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `cycle,cycles,l1d.misses,net.msgs
100,0,2,7
200,200,0,19
# histogram dir.episode_len: n=4 mean=227.50 min=0 max=900
# lo,hi,count
0,0,1
4,7,2
512,1023,1
`
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
