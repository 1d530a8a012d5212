package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/server"
	data "repro/internal/workload"
)

// Everything a workload does is drawn from its seed: each stream below
// has its own generator, so a workload that runs longer only extends
// its sequences and never reorders them.
const (
	streamView  = 1 // + client index
	streamFinal = 50
	streamWrite = 60
	streamEdit  = 70
)

func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// viewElevations straddles the label layer's visibility bound (Figure 7
// shows station names only below elevation 3), so consecutive ops toggle
// that layer on and off.
var viewElevations = []float64{8, 2.2, 1, 0.5}

// viewScript yields the view ops of one client: a centre drawn over
// Louisiana and an elevation. Elevation sets most of a frame's cost, so
// elevations come in blocks holding each of viewElevations once in
// seeded order: every seed spends the same share of its ops at each.
type viewScript struct {
	rng   *rand.Rand
	elevs []float64 // rest of the current block
}

func newViewScript(seed int64, client int) *viewScript {
	return &viewScript{rng: streamRNG(seed, streamView+client)}
}

func (s *viewScript) next() server.ClientOp {
	return server.ClientOp{
		Op:   "view",
		X:    round2(data.LouisianaLonMin + s.rng.Float64()*(data.LouisianaLonMax-data.LouisianaLonMin)),
		Y:    round2(data.LouisianaLatMin + s.rng.Float64()*(data.LouisianaLatMax-data.LouisianaLatMin)),
		Elev: nextInBlock(s.rng, &s.elevs, viewElevations),
	}
}

// finalView is the viewport every client of a run is asked for once the
// measured window is over.
func finalView(seed int64) server.ClientOp {
	return (&viewScript{rng: streamRNG(seed, streamFinal)}).next()
}

// write is one scheduled field update of Stations.altitude, due gap
// after the previous one.
type write struct {
	gap      time.Duration
	row      int
	altitude float64
}

// writeScript yields the live workload's writes. Gaps are exponential,
// as arrivals from independent writers are: a fixed period would
// phase-lock with the client's frame cycle and hold a run in one of a few
// regimes. Each block of gaps is scaled to sum to its mean, so every seed
// writes at the same rate. Rows are Louisiana stations (workload.Stations
// puts every fourth station there), so each write changes a tuple the
// Figure 7 program keeps.
type writeScript struct {
	rng      *rand.Rand
	stations int
	mean     time.Duration
	gaps     []time.Duration // rest of the current block
}

const writeBlock = 20

func newWriteScript(seed int64, stations int, mean time.Duration) *writeScript {
	return &writeScript{rng: streamRNG(seed, streamWrite), stations: stations, mean: mean}
}

func (s *writeScript) next() write {
	if len(s.gaps) == 0 {
		draws := make([]float64, writeBlock)
		var sum float64
		for i := range draws {
			draws[i] = s.rng.ExpFloat64()
			sum += draws[i]
		}
		for _, d := range draws {
			s.gaps = append(s.gaps, time.Duration(d/sum*writeBlock*float64(s.mean)))
		}
	}
	gap := s.gaps[0]
	s.gaps = s.gaps[1:]
	return write{
		gap:      gap,
		row:      4 * s.rng.Intn((s.stations+3)/4),
		altitude: round2(s.rng.Float64() * 400),
	}
}

// edit is one parameter change: a new temperature bound on the
// Observations restrict or a new latitude bound on the Stations one.
type edit struct {
	temperature bool
	bound       float64
}

// How many rows an edit keeps sets its cost, so bounds come from fixed
// grids, each value visited once per block in seeded order plus a seeded
// offset of under half a degree: every seed gets the same mix of cheap
// and expensive edits, and no two edits repeat a predicate.
var (
	temperatureGrid = []float64{8, 10, 12, 14, 16, 18, 20, 22}
	latitudeGrid    = []float64{27.5, 28.5, 29.5, 30.5, 31.5, 32.5}
)

// editScript alternates temperature and latitude edits.
type editScript struct {
	rng         *rand.Rand
	n           int
	temps, lats []float64 // rest of the current blocks
}

func newEditScript(seed int64) *editScript {
	return &editScript{rng: streamRNG(seed, streamEdit)}
}

func (s *editScript) next() edit {
	s.n++
	e := edit{temperature: s.n%2 == 1}
	if e.temperature {
		e.bound = nextInBlock(s.rng, &s.temps, temperatureGrid)
	} else {
		e.bound = nextInBlock(s.rng, &s.lats, latitudeGrid)
	}
	e.bound = round2(e.bound + (s.rng.Float64()-0.5)*0.8)
	return e
}

// nextInBlock pops the next value of the current block, starting a new
// seeded permutation of grid when the block is used up.
func nextInBlock(rng *rand.Rand, block *[]float64, grid []float64) float64 {
	if len(*block) == 0 {
		*block = append([]float64(nil), grid...)
		rng.Shuffle(len(*block), func(i, j int) { (*block)[i], (*block)[j] = (*block)[j], (*block)[i] })
	}
	v := (*block)[0]
	*block = (*block)[1:]
	return v
}

func temperaturePred(t float64) string { return fmt.Sprintf("temperature > %.2f", t) }
func latitudePred(l float64) string    { return fmt.Sprintf("latitude > %.2f", l) }

// Initial bounds of the edit program, before the first edit.
const (
	initialTemperature = 15.0
	initialLatitude    = 30.0
)

func round2(x float64) float64 { return math.Round(x*100) / 100 }
