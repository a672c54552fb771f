package config

// SetParking turns the park on or off and returns the old setting. Off,
// Build always constructs and Close parks nothing; turning it off empties
// it.
func SetParking(on bool) (was bool) {
	parked.Lock()
	defer parked.Unlock()
	was = !parked.off
	parked.off = !on
	if !on {
		parked.idle, parked.n = nil, 0
	}
	return was
}

// ParkHits counts the machines Build took from the park.
func ParkHits() uint64 {
	parked.Lock()
	defer parked.Unlock()
	return parked.hits
}
