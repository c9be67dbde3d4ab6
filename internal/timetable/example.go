package timetable

// PaperExample returns the example timetable graph of Figure 1 of the PTLDB
// paper: 7 stops and 4 trips. The figure annotates timestamps in units of
// 100 seconds (360 => 36,000 s = 10:00); this constructor returns real
// seconds, so e.g. the trip-1 departure from stop 5 is at 28,800 s (08:00).
//
// The four trips, reconstructed from the labels of Table 1:
//
//	trip 1: 5 @288 -> 1 @324 -> 0 @360 -> 2 @396 -> 6 @432
//	trip 2: 6 @288 -> 2 @324 -> 0 @360 -> 1 @396 -> 5 @432
//	trip 3: 3 @324 -> 0 @360 -> 4 @396
//	trip 4: 4 @324 -> 0 @360 -> 3 @396
//
// The paper's vertex order ranks stop 0 highest, followed by 1, 2, 3, 4.
func PaperExample() *Timetable {
	var b Builder
	b.AddStops(7)
	add := func(from, to StopID, dep, arr Time, trip TripID) {
		b.AddConnection(from, to, dep*100, arr*100, trip)
	}
	// Trip 1.
	add(5, 1, 288, 324, 1)
	add(1, 0, 324, 360, 1)
	add(0, 2, 360, 396, 1)
	add(2, 6, 396, 432, 1)
	// Trip 2.
	add(6, 2, 288, 324, 2)
	add(2, 0, 324, 360, 2)
	add(0, 1, 360, 396, 2)
	add(1, 5, 396, 432, 2)
	// Trip 3.
	add(3, 0, 324, 360, 3)
	add(0, 4, 360, 396, 3)
	// Trip 4.
	add(4, 0, 324, 360, 4)
	add(0, 3, 360, 396, 4)
	return b.MustBuild()
}
