package rosfile

import (
	"encoding/binary"
	"fmt"
)

// BundleMagic trails every bundle file.
const BundleMagic = 0x524F5342 // "ROSB"

// Bundle concatenates several named column files into one physical file to
// reduce file count when column data is small (paper §2.3). The layout is
// the raw column images back to back, followed by a directory, its length,
// and the magic.
type Bundle struct {
	entries map[string][2]int64 // name -> {offset, length}
	data    []byte
}

// BuildBundle concatenates the named column images in the given order.
func BuildBundle(names []string, images [][]byte) ([]byte, error) {
	if len(names) != len(images) {
		return nil, fmt.Errorf("rosfile: %d names but %d images", len(names), len(images))
	}
	var out []byte
	type ent struct {
		name   string
		offset int64
		length int64
	}
	ents := make([]ent, len(names))
	for i, img := range images {
		ents[i] = ent{name: names[i], offset: int64(len(out)), length: int64(len(img))}
		out = append(out, img...)
	}
	var dir []byte
	dir = binary.AppendUvarint(dir, uint64(len(ents)))
	for _, e := range ents {
		dir = binary.AppendUvarint(dir, uint64(len(e.name)))
		dir = append(dir, e.name...)
		dir = binary.AppendVarint(dir, e.offset)
		dir = binary.AppendVarint(dir, e.length)
	}
	out = append(out, dir...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dir)))
	out = binary.LittleEndian.AppendUint32(out, BundleMagic)
	return out, nil
}

// minBundleEntryBytes is the smallest encoding of one bundle directory
// entry: an empty name's length and one-byte offset and length varints.
const minBundleEntryBytes = 3

// OpenBundle parses a bundle image. Its directory must describe what
// BuildBundle writes: entries in file order, each within the column
// images that precede the directory and none overlapping the one before,
// so the columns' total size never exceeds the image's.
func OpenBundle(data []byte) (*Bundle, error) {
	if len(data) < 8 {
		return nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(data[len(data)-4:]) != BundleMagic {
		return nil, fmt.Errorf("rosfile: bad bundle magic: %w", ErrCorrupt)
	}
	dlen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	if dlen < 0 || dlen > len(data)-8 {
		return nil, ErrCorrupt
	}
	images := int64(len(data) - 8 - dlen)
	dir := data[images : len(data)-8]
	pos := 0
	cnt, n := binary.Uvarint(dir[pos:])
	if n <= 0 {
		return nil, ErrCorrupt
	}
	pos += n
	if cnt > uint64(len(dir)-pos)/minBundleEntryBytes {
		return nil, ErrCorrupt
	}
	b := &Bundle{entries: make(map[string][2]int64, cnt), data: data}
	next := int64(0) // where the previous entry ended
	for i := uint64(0); i < cnt; i++ {
		nl, n := binary.Uvarint(dir[pos:])
		if n <= 0 || nl > uint64(len(dir)-pos-n) {
			return nil, ErrCorrupt
		}
		pos += n
		name := string(dir[pos : pos+int(nl)])
		pos += int(nl)
		off, n := binary.Varint(dir[pos:])
		if n <= 0 {
			return nil, ErrCorrupt
		}
		pos += n
		length, n := binary.Varint(dir[pos:])
		if n <= 0 {
			return nil, ErrCorrupt
		}
		pos += n
		// Compared without adding, so a huge offset or length cannot
		// overflow past the check.
		if off < next || off > images || length < 0 || length > images-off {
			return nil, ErrCorrupt
		}
		next = off + length
		b.entries[name] = [2]int64{off, length}
	}
	return b, nil
}

// Names returns the column names present in the bundle.
func (b *Bundle) Names() []string {
	out := make([]string, 0, len(b.entries))
	for n := range b.entries {
		out = append(out, n)
	}
	return out
}

// Column returns the raw column image for name.
func (b *Bundle) Column(name string) ([]byte, error) {
	e, ok := b.entries[name]
	if !ok {
		return nil, fmt.Errorf("rosfile: bundle has no column %q", name)
	}
	return b.data[e[0] : e[0]+e[1]], nil
}

// Open parses the named column within the bundle.
func (b *Bundle) Open(name string) (*Reader, error) {
	img, err := b.Column(name)
	if err != nil {
		return nil, err
	}
	return NewReader(img)
}
