package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"privcluster"
	"privcluster/internal/geometry"
	"privcluster/internal/vec"
	gen "privcluster/internal/workload"
)

// gridSize is |X| for every generated dataset (the library default).
const gridSize = 1 << 16

// plantedRadius and plantedShare describe the planted ball of
// bench.IndexWorkload: 60% of the points uniform in a ball of radius 0.02,
// the rest uniform in the unit square.
const (
	plantedRadius = 0.02
	plantedShare  = 0.6
)

// minShare is the correctness floor of a released ball: it must hold at
// least this share of the query's t among the generated points. The
// 1-cluster guarantee is t − O(Γ) points with probability 1 − β, and on
// these inputs Γ is a few hundred points against t in the thousands.
const minShare = 0.5

// planted is a 2-D planted-ball point set with its ground-truth center.
type planted struct {
	points []privcluster.Point
	center vec.Vector
}

// plantedPoints draws n points exactly as bench.IndexWorkload does (same
// generator, same seed stream) but keeps the planted center, so that
// appended batches can follow the same distribution.
func plantedPoints(seed int64, n int) (planted, error) {
	grid, err := geometry.NewGrid(gridSize, 2)
	if err != nil {
		return planted{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	inst, err := gen.PlantedBall{N: n, ClusterSize: 3 * n / 5, Radius: plantedRadius}.Generate(rng, grid)
	if err != nil {
		return planted{}, err
	}
	return planted{points: toPoints(inst.Points), center: inst.TrueCenter}, nil
}

// batch draws m more points from the same planted distribution.
func (p planted) batch(rng *rand.Rand, m int) ([]privcluster.Point, error) {
	grid, err := geometry.NewGrid(gridSize, 2)
	if err != nil {
		return nil, err
	}
	inst, err := gen.PlantedBall{N: m, ClusterSize: int(plantedShare * float64(m)), Radius: plantedRadius, Center: p.center}.Generate(rng, grid)
	if err != nil {
		return nil, err
	}
	return toPoints(inst.Points), nil
}

func toPoints(vs []vec.Vector) []privcluster.Point {
	out := make([]privcluster.Point, len(vs))
	for i, v := range vs {
		out[i] = privcluster.Point(v)
	}
	return out
}

// values1D draws n values for the interior-point dataset: a Gaussian bump
// around a seeded location, clamped to the unit interval.
func values1D(seed int64, n int) []privcluster.Point {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed1d))
	mu := 0.3 + 0.4*rng.Float64()
	out := make([]privcluster.Point, n)
	for i := range out {
		x := mu + 0.05*rng.NormFloat64()
		out[i] = privcluster.Point{math.Min(1, math.Max(0, x))}
	}
	return out
}

// writeCSV writes points one per line with shortest round-trip formatting,
// so a parser reads back exactly the float64 values the benchmark holds.
func writeCSV(path string, pts []privcluster.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	buf := make([]byte, 0, 64)
	for _, p := range pts {
		buf = buf[:0]
		for j, x := range p {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countWithin counts the points inside the closed ball (center, radius).
func countWithin(pts []privcluster.Point, center []float64, radius float64) int {
	r2 := radius * radius
	n := 0
	for _, p := range pts {
		var s float64
		for j, x := range p {
			d := x - center[j]
			s += d * d
		}
		if s <= r2 {
			n++
		}
	}
	return n
}

// checkBall verifies one released ball against the generated points: it
// must be well formed and hold at least minShare·t of them.
func checkBall(pts []privcluster.Point, center []float64, radius float64, t int) error {
	if err := wellFormed(center, radius, len(pts[0])); err != nil {
		return err
	}
	if c := countWithin(pts, center, radius); float64(c) < minShare*float64(t) {
		return fmt.Errorf("released ball holds %d points, want at least %.0f (%.0f%% of t=%d)", c, minShare*float64(t), 100*minShare, t)
	}
	return nil
}

// wellFormed checks a released ball's shape: a finite center of the data's
// dimension and a finite, non-negative radius.
func wellFormed(center []float64, radius float64, dim int) error {
	if len(center) != dim {
		return fmt.Errorf("center has dimension %d, want %d", len(center), dim)
	}
	for _, x := range center {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("center coordinate %v", x)
		}
	}
	if !(radius >= 0) || math.IsInf(radius, 0) {
		return fmt.Errorf("radius %v", radius)
	}
	return nil
}

// checkCover verifies a k-cover release: between 1 and k well-formed
// balls whose union holds at least minShare·t of the points.
func checkCover(pts []privcluster.Point, centers [][]float64, radii []float64, k, t int) error {
	if len(centers) < 1 || len(centers) > k || len(radii) != len(centers) {
		return fmt.Errorf("k-cover released %d balls, want 1..%d", len(centers), k)
	}
	for b, c := range centers {
		if err := wellFormed(c, radii[b], len(pts[0])); err != nil {
			return err
		}
	}
	covered := 0
	for _, p := range pts {
		for b, c := range centers {
			var s float64
			for j, x := range p {
				d := x - c[j]
				s += d * d
			}
			if s <= radii[b]*radii[b] {
				covered++
				break
			}
		}
	}
	if float64(covered) < minShare*float64(t) {
		return fmt.Errorf("k-cover balls hold %d points, want at least %.0f", covered, minShare*float64(t))
	}
	return nil
}

// interval is the [min, max] range of a 1-D dataset, the region an
// interior-point release must land in.
type interval struct{ lo, hi float64 }

func spanOf(vals []privcluster.Point) interval {
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = v[0]
	}
	sort.Float64s(xs)
	return interval{xs[0], xs[len(xs)-1]}
}

func (iv interval) check(p float64) error {
	if math.IsNaN(p) || p < iv.lo || p > iv.hi {
		return fmt.Errorf("interior point %v outside [%v, %v]", p, iv.lo, iv.hi)
	}
	return nil
}
