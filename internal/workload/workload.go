// Package workload generates the synthetic datasets the reproduction
// uses in place of the paper's weather data: a North-American Stations
// relation, an Observations relation with seasonal temperature and
// precipitation series, the Louisiana border-line relation behind the map
// overlay of Figure 7, and a Sales relation for the Replicate example of
// Section 7.4. All generators are seeded and deterministic so every
// figure regenerates byte-identically.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/rel"
	"repro/internal/types"
)

// Louisiana's approximate bounding box in (longitude, latitude).
const (
	LouisianaLonMin = -94.0
	LouisianaLonMax = -89.0
	LouisianaLatMin = 29.0
	LouisianaLatMax = 33.0
)

// state boxes for scattering stations over North America; Louisiana
// first so a fixed fraction of stations land in the example's state.
var stateBoxes = []struct {
	Name                 string
	LonMin, LonMax       float64
	LatMin, LatMax       float64
	BaseTemp, BasePrecip float64
}{
	{"LA", LouisianaLonMin, LouisianaLonMax, LouisianaLatMin, LouisianaLatMax, 20, 4.5},
	{"TX", -104, -94, 26, 36, 19, 2.0},
	{"CA", -124, -114, 32, 42, 16, 1.2},
	{"NY", -79, -72, 40, 45, 9, 3.0},
	{"WA", -124, -117, 45, 49, 10, 3.5},
	{"FL", -87, -80, 25, 31, 23, 4.0},
	{"CO", -109, -102, 37, 41, 8, 1.5},
	{"MN", -97, -90, 43, 49, 5, 2.2},
	{"GA", -85, -81, 30, 35, 17, 3.8},
	{"AZ", -114, -109, 31, 37, 21, 0.8},
}

var nameSyllables = []string{
	"Bay", "Rouge", "Iber", "Lafa", "Ville", "Char", "Creek", "Lake",
	"Vern", "Mont", "Cros", "Bell", "Glen", "Ridge", "Ford", "Port",
	"Mar", "Dela", "Hamp", "Clif",
}

// StationCount is the default Stations cardinality used by figures.
const StationCount = 400

// StationsSchema returns the schema of the Stations relation.
func StationsSchema() *rel.Schema {
	return rel.MustSchema(
		rel.Column{Name: "id", Kind: types.Int},
		rel.Column{Name: "name", Kind: types.Text},
		rel.Column{Name: "state", Kind: types.Text},
		rel.Column{Name: "longitude", Kind: types.Float},
		rel.Column{Name: "latitude", Kind: types.Float},
		rel.Column{Name: "altitude", Kind: types.Float},
		rel.Column{Name: "built", Kind: types.Date},
	)
}

// Stations generates n weather stations scattered across North America,
// roughly a quarter of them in Louisiana (the agricultural specialist's
// state of interest).
func Stations(n int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.NewBuilder("Stations", StationsSchema())
	for i := 0; i < n; i++ {
		// Bias toward Louisiana: every 4th station.
		var box int
		if i%4 == 0 {
			box = 0
		} else {
			box = 1 + rng.Intn(len(stateBoxes)-1)
		}
		b := stateBoxes[box]
		lon := b.LonMin + rng.Float64()*(b.LonMax-b.LonMin)
		lat := b.LatMin + rng.Float64()*(b.LatMax-b.LatMin)
		alt := math.Abs(rng.NormFloat64()) * 150
		if b.Name == "CO" {
			alt += 1500
		}
		name := fmt.Sprintf("%s%s %d",
			nameSyllables[rng.Intn(len(nameSyllables))],
			nameSyllables[rng.Intn(len(nameSyllables))],
			i)
		built := types.DateYMD(1950+rng.Intn(40), 1+rng.Intn(12), 1+rng.Intn(28))
		r.MustAppend([]types.Value{
			types.NewInt(int64(i)),
			types.NewText(name),
			types.NewText(b.Name),
			types.NewFloat(round2(lon)),
			types.NewFloat(round2(lat)),
			types.NewFloat(round2(alt)),
			built,
		})
	}
	return r.Relation()
}

// ObservationsSchema returns the schema of the Observations relation.
func ObservationsSchema() *rel.Schema {
	return rel.MustSchema(
		rel.Column{Name: "station_id", Kind: types.Int},
		rel.Column{Name: "obs_date", Kind: types.Date},
		rel.Column{Name: "temperature", Kind: types.Float},
		rel.Column{Name: "precipitation", Kind: types.Float},
	)
}

// Observations generates perStation observations for each station in
// stations, sampled monthly over 1985-1995 (straddling the 1990 boundary
// of Figure 11's replicated display). Temperature follows a seasonal
// sinusoid around the station's state climate; precipitation is
// non-negative with seasonal swing.
func Observations(stations *rel.Relation, perStation int, seed int64) (*rel.Relation, error) {
	rng := rand.New(rand.NewSource(seed))
	out := rel.NewBuilder("Observations", ObservationsSchema())
	baseTemp := make(map[string]float64, len(stateBoxes))
	basePrecip := make(map[string]float64, len(stateBoxes))
	for _, b := range stateBoxes {
		baseTemp[b.Name] = b.BaseTemp
		basePrecip[b.Name] = b.BasePrecip
	}
	for i := 0; i < stations.Len(); i++ {
		row := stations.Row(i)
		id := row.Attr("id")
		state := row.Attr("state").Text()
		alt, _ := row.Attr("altitude").AsFloat()
		bt := baseTemp[state] - alt/300 // lapse rate
		bp := basePrecip[state]
		for k := 0; k < perStation; k++ {
			// Monthly cadence starting January 1985.
			monthIndex := k
			year := 1985 + monthIndex/12
			month := 1 + monthIndex%12
			day := 1 + rng.Intn(28)
			phase := 2 * math.Pi * float64(month-1) / 12
			temp := bt + 10*math.Sin(phase-math.Pi/2) + rng.NormFloat64()*2
			precip := math.Max(0, bp*(1+0.5*math.Sin(phase))+rng.NormFloat64()*1.0)
			if err := out.Append([]types.Value{
				id,
				types.DateYMD(year, month, day),
				types.NewFloat(round2(temp)),
				types.NewFloat(round2(precip)),
			}); err != nil {
				return nil, err
			}
		}
	}
	return out.Relation(), nil
}

// louisianaBorder is a coarse clockwise outline of Louisiana in
// (longitude, latitude), good enough to be recognizably the state on a
// map overlay.
var louisianaBorder = [][2]float64{
	{-94.04, 33.02}, {-91.16, 33.00}, {-91.20, 32.58}, {-90.98, 32.20},
	{-91.10, 31.80}, {-91.62, 31.27}, {-91.56, 30.99}, {-89.73, 31.00},
	{-89.84, 30.66}, {-89.62, 30.18}, {-89.20, 30.16}, {-89.02, 29.80},
	{-89.18, 29.32}, {-89.60, 29.05}, {-90.12, 29.12}, {-90.55, 29.28},
	{-91.10, 29.18}, {-91.64, 29.60}, {-92.26, 29.54}, {-93.18, 29.72},
	{-93.70, 29.74}, {-93.92, 29.98}, {-93.70, 30.40}, {-93.74, 31.00},
	{-93.52, 31.18}, {-93.82, 31.60}, {-94.04, 31.99},
}

// MapSchema returns the schema of the border-line relation: each tuple is
// one segment anchored at (x, y) extending by (dx, dy) — "a relation of
// lines defining the map" (Section 6.1).
func MapSchema() *rel.Schema {
	return rel.MustSchema(
		rel.Column{Name: "seg", Kind: types.Int},
		rel.Column{Name: "x", Kind: types.Float},
		rel.Column{Name: "y", Kind: types.Float},
		rel.Column{Name: "dx", Kind: types.Float},
		rel.Column{Name: "dy", Kind: types.Float},
	)
}

// LouisianaMap returns the border-line relation for Louisiana.
func LouisianaMap() *rel.Relation {
	r := rel.NewBuilder("LouisianaMap", MapSchema())
	for i := range louisianaBorder {
		a := louisianaBorder[i]
		b := louisianaBorder[(i+1)%len(louisianaBorder)]
		r.MustAppend([]types.Value{
			types.NewInt(int64(i)),
			types.NewFloat(a[0]),
			types.NewFloat(a[1]),
			types.NewFloat(round4(b[0] - a[0])),
			types.NewFloat(round4(b[1] - a[1])),
		})
	}
	return r.Relation()
}

// SalesSchema returns the schema of the Sales relation used by the
// Replicate example (salary predicates crossed with an enumerated
// department, Section 7.4).
func SalesSchema() *rel.Schema {
	return rel.MustSchema(
		rel.Column{Name: "id", Kind: types.Int},
		rel.Column{Name: "department", Kind: types.Text},
		rel.Column{Name: "salary", Kind: types.Float},
		rel.Column{Name: "units", Kind: types.Int},
		rel.Column{Name: "hired", Kind: types.Date},
	)
}

var departments = []string{"toys", "shoes", "garden", "electronics"}

// Sales generates n salespeople across departments.
func Sales(n int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.NewBuilder("Sales", SalesSchema())
	for i := 0; i < n; i++ {
		dept := departments[rng.Intn(len(departments))]
		salary := 2000 + rng.Float64()*8000
		units := rng.Intn(500)
		hired := types.DateYMD(1970+rng.Intn(25), 1+rng.Intn(12), 1+rng.Intn(28))
		r.MustAppend([]types.Value{
			types.NewInt(int64(i)),
			types.NewText(dept),
			types.NewFloat(round2(salary)),
			types.NewInt(int64(units)),
			hired,
		})
	}
	return r.Relation()
}

func round2(f float64) float64 { return math.Round(f*100) / 100 }
func round4(f float64) float64 { return math.Round(f*10000) / 10000 }
