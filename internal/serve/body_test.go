package serve

// body_test.go holds the query-body appenders to encoding/json: for any
// answer, appendPoint and appendResults write the bytes json.Marshal makes of
// the exported PointResponse / ResultsResponse (the schema clients decode),
// with the clock strings fmt's %02d made of the same times.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"ptldb/internal/core"
	"ptldb/internal/timetable"
)

// sprintfHMS is the clock rendering the bodies carried when encoding/json
// wrote them from gtfs.FormatTime's fmt.Sprintf.
func sprintfHMS(t timetable.Time) string {
	v := int32(t)
	return fmt.Sprintf("%02d:%02d:%02d", v/3600, v/60%60, v%60)
}

// marshalPoint and marshalResults are the bodies as encoding/json writes them.
func marshalPoint(t *testing.T, v timetable.Time, found bool) []byte {
	pr := PointResponse{}
	if found {
		pr = PointResponse{Found: true, Value: int64(v), HMS: sprintfHMS(v)}
	}
	blob, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

func marshalResults(t *testing.T, rs []core.Result) []byte {
	rr := ResultsResponse{Results: make([]StopTime, len(rs))}
	for i, r := range rs {
		rr.Results[i] = StopTime{Stop: int64(r.Stop), When: int64(r.When), HMS: sprintfHMS(r.When)}
	}
	blob, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// FuzzQueryBody: the point body of (value, found) and the result-list body
// of the rows packed in raw (8 bytes a row: stop, then time, little-endian;
// a nil list when nilRows) are byte for byte what encoding/json writes, and
// neither outgrows the buffer answer.body sizes for it (a grown buffer has
// another capacity).
func FuzzQueryBody(f *testing.F) {
	row := func(stop, when int32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(stop)), uint32(when))
	}
	f.Add(int32(28860), true, []byte(nil), true)
	f.Add(int32(0), false, []byte{}, false)
	f.Add(int32(-100), true, row(5, -100), false)
	f.Add(int32(100*3600), true, append(row(1, 360000), row(2, 99*3600+3599)...), false)
	f.Add(int32(math.MinInt32), true, append(row(math.MinInt32, math.MinInt32), row(math.MaxInt32, math.MaxInt32)...), false)
	f.Add(int32(math.MaxInt32), true, append(row(-1, -3661), 7, 7, 7), false)
	f.Fuzz(func(t *testing.T, value int32, found bool, raw []byte, nilRows bool) {
		v := timetable.Time(value)
		got := answer{t: v, found: found}.body()
		if want := marshalPoint(t, v, found); !bytes.Equal(got, want) {
			t.Fatalf("point (%d, %v):\n got %q\nwant %q", v, found, got, want)
		}
		if cap(got) != maxPointBody {
			t.Fatalf("point body of %d bytes outgrew its %d-byte buffer", len(got), maxPointBody)
		}
		var rs []core.Result
		if !nilRows {
			rs = []core.Result{}
		}
		for ; len(raw) >= 8; raw = raw[8:] {
			rs = append(rs, core.Result{
				Stop: timetable.StopID(binary.LittleEndian.Uint32(raw)),
				When: timetable.Time(binary.LittleEndian.Uint32(raw[4:])),
			})
		}
		got = answer{list: true, rows: rs}.body()
		if want := marshalResults(t, rs); !bytes.Equal(got, want) {
			t.Fatalf("results %v:\n got %q\nwant %q", rs, got, want)
		}
		if size := len(resultsOpen) + len(rs)*maxResultRow + len(resultsClose); cap(got) != size {
			t.Fatalf("results body of %d bytes outgrew its %d-byte buffer", len(got), size)
		}
	})
}
