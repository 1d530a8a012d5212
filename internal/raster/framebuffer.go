// Package raster is the screen substrate for Tioga-2: a software RGBA
// framebuffer with rasterizers for every primitive drawable of Section 5.1
// (point, line, rectangle, circle, polygon, text) plus PPM/PNG export and
// an ASCII back end. It replaces the 1996 X11 display, so figures are
// reproduced as deterministic images rather than interactive windows.
package raster

import (
	"fmt"
	"image"
	"image/png"
	"io"
	"strings"
	"sync/atomic"

	"repro/internal/draw"
)

// Image is an RGBA framebuffer. Pixel (0,0) is the top-left corner;
// viewers flip world y before drawing.
type Image struct {
	W, H int
	Pix  []draw.Color
}

// NewImage returns a framebuffer cleared to white (the paper's canvases
// are drawn on white).
func NewImage(w, h int) *Image {
	img := &Image{W: w, H: h, Pix: make([]draw.Color, w*h)}
	img.Clear(draw.White)
	return img
}

// Clear fills the image with c.
func (img *Image) Clear(c draw.Color) {
	for i := range img.Pix {
		img.Pix[i] = c
	}
}

// In reports whether (x,y) lies inside the framebuffer.
func (img *Image) In(x, y int) bool {
	return x >= 0 && x < img.W && y >= 0 && y < img.H
}

// Set writes pixel (x,y) with source-over alpha blending; out-of-bounds
// writes are clipped.
func (img *Image) Set(x, y int, c draw.Color) {
	if !img.In(x, y) {
		return
	}
	i := y*img.W + x
	if c.A == 255 {
		img.Pix[i] = c
		return
	}
	if c.A == 0 {
		return
	}
	dst := img.Pix[i]
	a := uint32(c.A)
	na := 255 - a
	img.Pix[i] = draw.Color{
		R: uint8((uint32(c.R)*a + uint32(dst.R)*na) / 255),
		G: uint8((uint32(c.G)*a + uint32(dst.G)*na) / 255),
		B: uint8((uint32(c.B)*a + uint32(dst.B)*na) / 255),
		A: 255,
	}
}

// At returns pixel (x,y); out-of-bounds reads return transparent black.
func (img *Image) At(x, y int) draw.Color {
	if !img.In(x, y) {
		return draw.Color{}
	}
	return img.Pix[y*img.W+x]
}

// CountNonBackground returns the number of pixels differing from bg, a
// cheap structural check used by figure tests ("something was drawn
// here").
func (img *Image) CountNonBackground(bg draw.Color) int {
	n := 0
	for _, p := range img.Pix {
		if p != bg {
			n++
		}
	}
	return n
}

// SubImageNonBackground reports whether any pixel in the given rectangle
// (clipped to the image) differs from bg.
func (img *Image) SubImageNonBackground(x0, y0, x1, y1 int, bg draw.Color) bool {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > img.W {
		x1 = img.W
	}
	if y1 > img.H {
		y1 = img.H
	}
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			if img.Pix[y*img.W+x] != bg {
				return true
			}
		}
	}
	return false
}

// WritePPM writes the image as binary PPM (P6), the simplest portable
// format for diffing figure outputs.
func (img *Image) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", img.W, img.H); err != nil {
		return err
	}
	buf := make([]byte, 0, img.W*3)
	for y := 0; y < img.H; y++ {
		buf = buf[:0]
		for x := 0; x < img.W; x++ {
			p := img.Pix[y*img.W+x]
			buf = append(buf, p.R, p.G, p.B)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WritePNG writes the image as PNG via the standard library encoder.
// It keeps one RGBA copy and one compressor for the next call: a frame
// server encodes every frame it sends, and that garbage would otherwise
// set the collector's pace. One value each, not a sync.Pool, so the
// memory kept is fixed; an encode that finds one taken allocates its own.
func (img *Image) WritePNG(w io.Writer) error {
	out := rgbaCopy.Swap(nil)
	if out == nil || out.Rect.Dx() != img.W || out.Rect.Dy() != img.H {
		out = image.NewRGBA(image.Rect(0, 0, img.W, img.H))
	}
	defer rgbaCopy.Store(out)
	for i, p := range img.Pix {
		o := out.Pix[4*i : 4*i+4 : 4*i+4]
		o[0], o[1], o[2], o[3] = p.R, p.G, p.B, p.A
	}
	return pngEncoder.Encode(w, out)
}

var (
	rgbaCopy   atomic.Pointer[image.RGBA]
	pngEncoder = png.Encoder{BufferPool: new(pngBuffer)}
)

// pngBuffer is a png.EncoderBufferPool holding one buffer.
type pngBuffer struct {
	atomic.Pointer[png.EncoderBuffer]
}

func (b *pngBuffer) Get() *png.EncoderBuffer    { return b.Swap(nil) }
func (b *pngBuffer) Put(buf *png.EncoderBuffer) { b.Store(buf) }

// ASCII renders the framebuffer as character art, one character per
// cellW x cellH pixel block, darker blocks getting denser characters. It
// is the terminal-monitor view of a canvas, handy in the interactive
// shell.
func (img *Image) ASCII(cols int) string {
	if cols <= 0 {
		cols = 80
	}
	if cols > img.W {
		cols = img.W
	}
	cellW := img.W / cols
	if cellW < 1 {
		cellW = 1
	}
	cellH := cellW * 2 // terminal cells are ~2x taller than wide
	ramp := []byte(" .:-=+*#%@")
	var sb strings.Builder
	for y := 0; y+cellH <= img.H; y += cellH {
		for x := 0; x+cellW <= img.W && x/cellW < cols; x += cellW {
			// Average darkness over the cell.
			var sum, n int
			for dy := 0; dy < cellH; dy++ {
				for dx := 0; dx < cellW; dx++ {
					p := img.Pix[(y+dy)*img.W+x+dx]
					lum := (int(p.R)*299 + int(p.G)*587 + int(p.B)*114) / 1000
					sum += 255 - lum
					n++
				}
			}
			idx := sum / n * (len(ramp) - 1) / 255
			sb.WriteByte(ramp[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
