package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// FuzzParseFrame: parseFrame never panics, and a frame it accepts has its
// key and value inside the frame and is exactly what encodeFrame writes
// for them, byte for byte. Seeds are writeWarmLog frames, whole, cut and
// bit-flipped.
func FuzzParseFrame(f *testing.F) {
	dir := f.TempDir()
	writeWarmLog(f, dir)
	log, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	// The first two snapshot frames and the first two small ones.
	for i, off := 0, int64(0); i < 11 && off < int64(len(log)); i++ {
		n, ok := frameLen(log[off:])
		if !ok {
			f.Fatalf("frame %d has a bad header", i)
		}
		frame := log[off : off+n]
		off += n
		if i != 0 && i != 1 && i != 9 && i != 10 {
			continue
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:headerSize])
		for _, at := range []int{0, 4, 5, 9, headerSize, len(frame) - 1} {
			flipped := bytes.Clone(frame)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		key, val, ok := parseFrame(b)
		if !ok {
			return
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		hi := lo + uintptr(len(b))
		for _, part := range [][]byte{key, val} {
			p := uintptr(unsafe.Pointer(unsafe.SliceData(part)))
			if p < lo || p+uintptr(len(part)) > hi {
				t.Fatalf("accepted a frame whose key or value lies outside it")
			}
		}
		if again := encodeFrame(string(key), val); !bytes.Equal(again, b) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again, b)
		}
	})
}
