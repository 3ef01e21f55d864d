package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

func normalRec(model string, i int) FlightRecord {
	return FlightRecord{
		Model: model, TraceID: "t" + strconv.Itoa(i),
		ExitIndex: i % 4, TotalMS: float64(i % 10), Outcome: FlightOK,
		StartUnixNS: int64(i),
	}
}

func anomalousRec(model string, i int) FlightRecord {
	r := normalRec(model, i)
	r.TotalMS = 500 + float64(i)
	r.Anomalies = []string{AnomalyP99}
	r.Spans = []Span{{Name: "queue", StartUnixNS: int64(i), DurationMS: 1}}
	return r
}

// TestFlightTailRetention pins the retention contract: anomalous records
// always survive (spans intact), normals survive 1-in-N.
func TestFlightTailRetention(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Capacity: 512, SampleN: 8})
	for i := 0; i < 64; i++ {
		f.Record(normalRec("m", i))
	}
	for i := 0; i < 16; i++ {
		f.Record(anomalousRec("m", 1000+i))
	}
	anom := f.Query(FlightQuery{AnomalousOnly: true, Limit: 100})
	if len(anom) != 16 {
		t.Fatalf("retained %d anomalous records, want all 16", len(anom))
	}
	for _, r := range anom {
		if len(r.Spans) == 0 {
			t.Fatalf("anomalous record %s lost its span tree", r.TraceID)
		}
	}
	all := f.Query(FlightQuery{Limit: 1000})
	normals := len(all) - len(anom)
	if want := 64 / 8; normals != want {
		t.Fatalf("retained %d normal records, want %d (1-in-8 of 64)", normals, want)
	}
	st := f.Stats()
	if st.Seen != 80 || st.Anomalous != 16 || st.Sampled != 8 {
		t.Fatalf("stats %+v, want seen=80 anomalous=16 sampled=8", st)
	}
	// Newest first.
	if all[0].StartUnixNS < all[1].StartUnixNS {
		t.Fatalf("query not newest-first: %d then %d", all[0].StartUnixNS, all[1].StartUnixNS)
	}
}

// TestFlightQueryFilters exercises the /debug/flightz filter surface
// through the HTTP handler.
func TestFlightQueryFilters(t *testing.T) {
	set := NewFlightSet("serve", FlightConfig{SampleN: 1})
	for i := 0; i < 10; i++ {
		set.Recorder("a").Record(normalRec("a", i))
	}
	set.Recorder("a").Record(FlightRecord{
		Model: "a", Outcome: FlightShed, RejectCause: "queue_full",
		ExitIndex: -1, TotalMS: 42, Anomalies: []string{AnomalyShed}, StartUnixNS: 99,
	})
	for i := 0; i < 5; i++ {
		set.Recorder("b").Record(anomalousRec("b", i))
	}

	get := func(query string) FlightzResponse {
		req := httptest.NewRequest("GET", "/debug/flightz"+query, nil)
		w := httptest.NewRecorder()
		set.Handler().ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("GET %s: HTTP %d", query, w.Code)
		}
		var resp FlightzResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		return resp
	}

	if resp := get("?model=b"); len(resp.Records) != 5 {
		t.Fatalf("model=b returned %d records, want 5", len(resp.Records))
	}
	if resp := get("?outcome=shed"); len(resp.Records) != 1 || resp.Records[0].RejectCause != "queue_full" {
		t.Fatalf("outcome=shed returned %+v, want the one shed", resp.Records)
	}
	if resp := get("?min_ms=100"); len(resp.Records) != 5 {
		t.Fatalf("min_ms=100 returned %d records, want the 5 anomalous b records", len(resp.Records))
	}
	if resp := get("?limit=3"); len(resp.Records) != 3 {
		t.Fatalf("limit=3 returned %d records", len(resp.Records))
	}
	if resp := get("?anomalous=1&model=a"); len(resp.Records) != 1 {
		t.Fatalf("anomalous=1&model=a returned %d records, want 1", len(resp.Records))
	}
}

// TestFlightSnapshotCapturesAnomalies pins the rung-down snapshot: the
// frozen records lead with the anomalous evidence.
func TestFlightSnapshotCapturesAnomalies(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{SampleN: 1, SnapshotRecords: 8, SnapshotCap: 2})
	for i := 0; i < 20; i++ {
		f.Record(normalRec("m", i))
	}
	f.Record(anomalousRec("m", 777))
	f.Snapshot("rung_down", "m", 2, 33.3, time.Now().UnixNano())
	snaps := f.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Reason != "rung_down" || s.Rung != 2 || s.P99LatencyMS != 33.3 {
		t.Fatalf("snapshot context %+v", s)
	}
	if len(s.Records) != 8 {
		t.Fatalf("snapshot froze %d records, want 8", len(s.Records))
	}
	if !s.Records[0].Anomalous() || len(s.Records[0].Spans) == 0 {
		t.Fatalf("snapshot's first record is not the anomalous span tree: %+v", s.Records[0])
	}
	// The cap evicts oldest.
	f.Snapshot("rung_down", "m", 3, 44, time.Now().UnixNano())
	f.Snapshot("rung_down", "m", 4, 55, time.Now().UnixNano())
	snaps = f.Snapshots()
	if len(snaps) != 2 || snaps[0].Rung != 3 || snaps[1].Rung != 4 {
		t.Fatalf("snapshot ring %+v, want rungs 3,4", snaps)
	}
}

// TestFlightDisabledDropsRecords pins the kill switch the overhead
// benchmark relies on.
func TestFlightDisabledDropsRecords(t *testing.T) {
	SetFlightEnabled(false)
	defer SetFlightEnabled(true)
	f := NewFlightRecorder(FlightConfig{SampleN: 1})
	f.Record(anomalousRec("m", 1))
	if st := f.Stats(); st.Seen != 0 || st.Buffered != 0 {
		t.Fatalf("disabled recorder retained %+v", st)
	}
}

// TestFlightConcurrent hammers one FlightSet from concurrent writers,
// queriers, snapshotters and a "hot-swap" goroutine that re-resolves
// recorders by name (the registry-swap access pattern) — the -race run
// is the assertion.
func TestFlightConcurrent(t *testing.T) {
	set := NewFlightSet("serve", FlightConfig{Capacity: 64, SampleN: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	models := []string{"a", "b", "c"}

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m := models[i%len(models)]
				if i%7 == 0 {
					set.Recorder(m).Record(anomalousRec(m, i))
				} else {
					set.Recorder(m).Record(normalRec(m, i))
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				set.Query(FlightQuery{Limit: 16, Model: models[i%len(models)]})
				set.Query(FlightQuery{AnomalousOnly: true, Limit: 8})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Re-resolve by name as a hot-swap would, then snapshot.
			f := set.Recorder(models[i%len(models)])
			f.Snapshot("rung_down", models[i%len(models)], i%4, float64(i), int64(i))
			f.Snapshots()
			f.Stats()
		}
	}()

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	resp := set.Query(FlightQuery{Limit: 1000})
	if len(resp.Records) == 0 {
		t.Fatal("no records survived the storm")
	}
	for _, r := range resp.Records {
		if r.Model == "" {
			t.Fatal("torn record: empty model")
		}
	}
}

// TestFlightRefusalsKeepTheirShare: sheds and errors fill half of the ring
// and no other record evicts them, and other records keep the other half;
// Query reads both, newest first, and Record does not allocate.
func TestFlightRefusalsKeepTheirShare(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Capacity: 16, SampleN: 1})
	shed := FlightRecord{Outcome: FlightShed, RejectCause: "queue_full", Anomalies: []string{AnomalyShed}, TraceID: "shed"}
	f.Record(shed)
	deep := anomalousRec("m", 1)
	deep.Anomalies = []string{AnomalyDeepExit}
	if allocs := testing.AllocsPerRun(100, func() { f.Record(deep) }); allocs != 0 {
		t.Errorf("Record allocates %v times per call", allocs)
	}
	all := f.Query(FlightQuery{Limit: 100})
	if st := f.Stats(); st.Buffered != 9 || len(all) != 9 {
		t.Fatalf("%d buffered, %d read, want the shed and 8 others", st.Buffered, len(all))
	}
	if last := all[len(all)-1]; last.TraceID != "shed" {
		t.Fatalf("oldest record %+v, want the shed", last)
	}
	for i := 0; i < 9; i++ {
		f.Record(FlightRecord{Outcome: FlightError, TraceID: strconv.Itoa(i), Anomalies: []string{AnomalyError}, StartUnixNS: int64(10 + i)})
	}
	errs := f.Query(FlightQuery{Outcome: FlightError, Limit: 100})
	if len(errs) != 8 || errs[0].TraceID != "8" || errs[7].TraceID != "1" {
		t.Fatalf("error records %+v, want the newest 8, newest first", errs)
	}
	if n := len(f.Query(FlightQuery{Outcome: FlightOK, Limit: 100})); n != 8 {
		t.Fatalf("%d other records left, want 8", n)
	}
}
