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

// HorizonExample returns a hand-built network of 6 stops whose last trip
// crosses midnight: it departs stop 3 at 23:50:00 and reaches stop 5 at
// 25:10:00, the network's last arrival, GTFS-style past 24:00:00. The first
// departure is 05:00:00. Queries at and past either end of the timetable
// run on it (the horizon rule, DESIGN.md §7.4).
//
//	trip 1: 5 @05:00 -> 0 @05:30
//	trip 2: 0 @06:00 -> 1 @06:20 -> 2 @07:00
//	trip 3: 2 @12:00 -> 3 @12:30
//	trip 4: 1 @20:00 -> 3 @21:15
//	trip 5: 0 @22:00 -> 3 @23:00
//	trip 6: 3 @23:50 -> 4 @24:20 -> 5 @25:10
func HorizonExample() *Timetable {
	var b Builder
	b.AddStops(6)
	hms := func(h, m Time) Time { return h*3600 + m*60 }
	b.AddConnection(5, 0, hms(5, 0), hms(5, 30), 1)
	b.AddConnection(0, 1, hms(6, 0), hms(6, 20), 2)
	b.AddConnection(1, 2, hms(6, 20), hms(7, 0), 2)
	b.AddConnection(2, 3, hms(12, 0), hms(12, 30), 3)
	b.AddConnection(1, 3, hms(20, 0), hms(21, 15), 4)
	b.AddConnection(0, 3, hms(22, 0), hms(23, 0), 5)
	b.AddConnection(3, 4, hms(23, 50), hms(24, 20), 6)
	b.AddConnection(4, 5, hms(24, 20), hms(25, 10), 6)
	return b.MustBuild()
}
