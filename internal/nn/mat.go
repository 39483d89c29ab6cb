// Package nn implements the QEP2Seq translation model of paper §6.4 from
// scratch: an LSTM encoder-decoder (the exact cell equations (2)–(6) of the
// paper, plus biases), additive Bahdanau attention (equations (8)–(10)),
// a softmax output layer over the concatenated decoder state and context
// vector (equation (11)), cross-entropy training with teacher forcing
// (equation (12)) under plain SGD, and beam-search decoding (equation (13)).
// All gradients are computed by hand-written backpropagation through time.
package nn

import "math/rand"

// Mat is a dense rows×cols parameter matrix with its gradient accumulator.
type Mat struct {
	R, C int
	W    []float64 // row-major weights
	G    []float64 // accumulated gradients
}

// NewMat allocates a zero matrix.
func NewMat(r, c int) *Mat {
	return &Mat{R: r, C: c, W: make([]float64, r*c), G: make([]float64, r*c)}
}

// NewMatUniform allocates a matrix initialized uniformly in [-scale, scale],
// the paper's initialization (±0.1).
func NewMatUniform(r, c int, scale float64, rng *rand.Rand) *Mat {
	m := NewMat(r, c)
	for i := range m.W {
		m.W[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

// Set assigns the element at (i, j).
func (m *Mat) Set(i, j int, v float64) { m.W[i*m.C+j] = v }

// Row returns a view of row i of the weights.
func (m *Mat) Row(i int) []float64 { return m.W[i*m.C : (i+1)*m.C] }

// GradRow returns a view of row i of the gradient.
func (m *Mat) GradRow(i int) []float64 { return m.G[i*m.C : (i+1)*m.C] }

// MulVec computes m.W · x.
func (m *Mat) MulVec(x []float64) []float64 {
	out := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		row := m.W[i*m.C : (i+1)*m.C]
		s := 0.0
		for j, v := range x {
			s += row[j] * v
		}
		out[i] = s
	}
	return out
}

// MulVecT computes m.Wᵀ · y (used to propagate gradients backwards).
func (m *Mat) MulVecT(y []float64) []float64 {
	out := make([]float64, m.C)
	for i := 0; i < m.R; i++ {
		row := m.W[i*m.C : (i+1)*m.C]
		yi := y[i]
		if yi == 0 {
			continue
		}
		for j := range out {
			out[j] += row[j] * yi
		}
	}
	return out
}

// AddOuterGrad accumulates the outer product y·xᵀ into the gradient.
func (m *Mat) AddOuterGrad(y, x []float64) {
	for i := 0; i < m.R; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		g := m.G[i*m.C : (i+1)*m.C]
		for j, xj := range x {
			g[j] += yi * xj
		}
	}
}

// Step applies one SGD update w -= lr·g and clears the gradient.
func (m *Mat) Step(lr float64) {
	for i, g := range m.G {
		m.W[i] -= lr * g
		m.G[i] = 0
	}
}

// NumParams returns the number of weights.
func (m *Mat) NumParams() int { return len(m.W) }

// --- small vector helpers ----------------------------------------------------

func addInto(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}
