package gvecsr

import (
	"fmt"
	"io"
	"os"
	"strings"

	"gveleiden/internal/graph"
)

// Ext is the canonical file extension of the container format.
const Ext = ".gvecsr"

// Open memory-maps the container at path: millisecond-scale regardless
// of graph size, zero copies, and read-only pages shared with every
// other process mapping the same file. The header and section
// directory are validated (including their checksums) before Open
// returns; the section payloads are checksum- and semantics-verified
// lazily, on the first Graph/Permutation/Verify call. On platforms
// without mmap (or when mapping fails) Open falls back to reading the
// file into memory, preserving the interface.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < HeaderBytes {
		return nil, fmt.Errorf("%w: %d-byte file", ErrTruncated, st.Size())
	}
	data, err := mmapFile(f, st.Size())
	mapped := err == nil
	if err != nil {
		// Portable fallback: same File semantics from a heap buffer.
		data = make([]byte, st.Size())
		if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
			return nil, err
		}
	}
	out, perr := newFile(path, data, mapped)
	if perr != nil && mapped {
		_ = munmapFile(data)
	}
	return out, perr
}

// Load reads the container at path into ordinary heap slices — the
// portable path for callers that outlive the file, want mutable
// arrays, or run where mmap is unavailable. Unlike Open, Load verifies
// everything eagerly: a non-nil error covers checksums and semantic
// validity, and Graph cannot fail afterwards. Every allocation is
// bounded by the actual file size, so a corrupt header cannot trigger
// a huge up-front allocation.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := newFile(path, data, false)
	if err != nil {
		return nil, err
	}
	if err := f.Verify(); err != nil {
		return nil, err
	}
	// Detach the graph from the read buffer: the sections become
	// independent, naturally-aligned slices (u32Section returns
	// aliasing views when the buffer happens to be aligned).
	f.g = f.g.Clone()
	if f.perm != nil {
		f.perm = append([]uint32(nil), f.perm...)
	}
	f.data = nil
	f.src = SourceLoad
	return f, nil
}

// newFile parses and layout-validates the container bytes and returns
// a File whose payload verification is still pending.
func newFile(path string, data []byte, mapped bool) (*File, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	secs, err := parseDirectory(data, h, data[HeaderBytes:])
	if err != nil {
		return nil, err
	}
	if err := validateLayout(h, secs, uint64(len(data))); err != nil {
		return nil, err
	}
	src := SourceLoad
	if mapped {
		src = SourceMmap
	}
	return &File{src: src, path: path, hdr: h, secs: secs, data: data, mapped: mapped}, nil
}

// LoadAny opens a graph dataset of any supported format, dispatching
// on the gvecsr magic (sniffed, so the extension is advisory):
// containers are memory-mapped via Open, while MatrixMarket (.mtx)
// and edge-list files go through the parsing loaders of
// internal/graph, whose cost scales with the text, not the graph.
// This is the single entry point the CLI tools, the benchmarks and the
// server load datasets through.
func LoadAny(path string) (*File, error) {
	isContainer := strings.HasSuffix(path, Ext)
	if !isContainer {
		if f, err := os.Open(path); err == nil {
			var magic [8]byte
			if _, rerr := f.ReadAt(magic[:], 0); rerr == nil && magic == Magic {
				isContainer = true
			}
			f.Close()
		}
	}
	if isContainer {
		return Open(path)
	}
	g, err := graph.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return FromCSR(path, g), nil
}

// FromCSR wraps an already-built in-memory graph in the File
// interface, so generated and parsed graphs flow through the same
// plumbing as mapped containers. Verify is a no-op: the builders and
// parsing loaders validate on construction.
func FromCSR(path string, g *graph.CSR) *File {
	f := &File{src: SourceParse, path: path, g: g}
	f.verifyOnce.Do(func() {}) // nothing pending
	return f
}
