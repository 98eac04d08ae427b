package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Real-graph ingestion: streaming parsers for the two interchange formats
// real datasets ship in — SNAP/GAP-style text edge lists (.txt/.el/.wel)
// and Matrix Market coordinate files (.mtx, SuiteSparse) — plus format
// detection by content sniffing. All formats converge on the FromEdges ->
// CSR path, so an ingested LiveJournal or road network behaves exactly
// like a synthetic dataset everywhere downstream.

// maxIngestVertices bounds the vertex count an ingested file may imply
// relative to the number of edges it actually contains. Text formats size
// the graph by declared dimensions or maximum vertex ID, which a hostile
// (or truncated) file can inflate to billions while carrying a handful of
// edges; the CSR index arrays alone would then commit tens of gigabytes.
// Real graphs never have 8x more vertices than edges at scale, so the
// guard rejects such files instead of allocating.
func maxIngestVertices(edges int) uint64 { return 1024 + 8*uint64(edges) }

func checkVertexBound(n uint64, edges int, format string) error {
	if n > maxIngestVertices(edges) {
		return fmt.Errorf("graph: %s declares %d vertices for %d edges; vertex IDs/dimensions this sparse are rejected (bound %d) — compact the IDs first",
			format, n, edges, maxIngestVertices(edges))
	}
	if n > math.MaxUint32 {
		return fmt.Errorf("graph: %s declares %d vertices, beyond the 32-bit vertex ID space", format, n)
	}
	return nil
}

// ReadMatrixMarket parses a Matrix Market coordinate file as a directed
// graph: each entry (i, j) becomes the edge i-1 -> j-1 (Matrix Market is
// 1-based), with symmetric files contributing the mirror edge for
// off-diagonal entries. Supported headers are
//
//	%%MatrixMarket matrix coordinate {real|integer|pattern} {general|symmetric}
//
// real/integer values become edge weights (reals are rounded); pattern
// files are unweighted. Array format, complex/hermitian fields and
// skew-symmetric symmetry have no graph interpretation here and are
// rejected.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	// Header line.
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("graph: reading MatrixMarket header: %w", err)
		}
		return nil, fmt.Errorf("graph: empty MatrixMarket file")
	}
	hdr := strings.Fields(strings.ToLower(sc.Text()))
	if len(hdr) != 5 || hdr[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("graph: bad MatrixMarket header %q", sc.Text())
	}
	if hdr[1] != "matrix" || hdr[2] != "coordinate" {
		return nil, fmt.Errorf("graph: unsupported MatrixMarket type %q (want matrix coordinate)", sc.Text())
	}
	field, symmetry := hdr[3], hdr[4]
	weighted := false
	switch field {
	case "pattern":
	case "real", "integer":
		weighted = true
	default:
		return nil, fmt.Errorf("graph: unsupported MatrixMarket field %q", field)
	}
	symmetric := false
	switch symmetry {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return nil, fmt.Errorf("graph: unsupported MatrixMarket symmetry %q", symmetry)
	}

	// Size line (after % comments).
	var rows, cols, nnz uint64
	sized := false
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 'rows cols nnz', got %q", lineNo, line)
		}
		var err error
		if rows, err = strconv.ParseUint(f[0], 10, 64); err != nil {
			return nil, fmt.Errorf("graph: line %d: bad row count %q: %v", lineNo, f[0], err)
		}
		if cols, err = strconv.ParseUint(f[1], 10, 64); err != nil {
			return nil, fmt.Errorf("graph: line %d: bad column count %q: %v", lineNo, f[1], err)
		}
		if nnz, err = strconv.ParseUint(f[2], 10, 64); err != nil {
			return nil, fmt.Errorf("graph: line %d: bad entry count %q: %v", lineNo, f[2], err)
		}
		sized = true
		break
	}
	if !sized {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("graph: reading MatrixMarket size line: %w", err)
		}
		return nil, fmt.Errorf("graph: MatrixMarket file has no size line")
	}
	n := rows
	if cols > n {
		n = cols
	}

	// Entries. Capacity is bounded: the declared nnz is untrusted until the
	// entries actually arrive.
	prealloc := nnz
	if symmetric {
		prealloc *= 2
	}
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	edges := make([]Edge, 0, prealloc)
	var count uint64
	wantFields := 2
	if weighted {
		wantFields = 3
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != wantFields {
			return nil, fmt.Errorf("graph: line %d: want %d fields for a %s entry, got %q", lineNo, wantFields, field, line)
		}
		i, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil || i == 0 || i > rows {
			return nil, fmt.Errorf("graph: line %d: row index %q out of [1, %d]", lineNo, f[0], rows)
		}
		j, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil || j == 0 || j > cols {
			return nil, fmt.Errorf("graph: line %d: column index %q out of [1, %d]", lineNo, f[1], cols)
		}
		var w int32 = 1
		if weighted {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad value %q: %v", lineNo, f[2], err)
			}
			if math.IsNaN(v) || v > math.MaxInt32 || v < math.MinInt32 {
				return nil, fmt.Errorf("graph: line %d: value %q outside the int32 weight range", lineNo, f[2])
			}
			w = int32(math.Round(v))
		}
		count++
		if count > nnz {
			return nil, fmt.Errorf("graph: line %d: more entries than the declared %d", lineNo, nnz)
		}
		e := Edge{Src: uint32(i - 1), Dst: uint32(j - 1), Weight: w}
		edges = append(edges, e)
		if symmetric && i != j {
			edges = append(edges, Edge{Src: e.Dst, Dst: e.Src, Weight: w})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading MatrixMarket entries: %w", err)
	}
	if count != nnz {
		return nil, fmt.Errorf("graph: MatrixMarket file declares %d entries but contains %d", nnz, count)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("graph: MatrixMarket file has no entries")
	}
	if err := checkVertexBound(n, len(edges), "MatrixMarket file"); err != nil {
		return nil, err
	}
	return FromEdges(uint32(n), edges, weighted)
}

// ReadGraph parses a graph from r, sniffing the format from the stream's
// first bytes: the GCSR magic selects the binary format, a "%%MatrixMarket"
// banner selects Matrix Market, and anything else is treated as a text edge
// list. name is used in error messages only.
func ReadGraph(r io.Reader, name string) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head, err := br.Peek(len("%%MatrixMarket"))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("graph: sniffing %s: %w", name, err)
	}
	switch {
	case len(head) >= len(magic) && string(head[:len(magic)]) == magic:
		return ReadFrom(br)
	case strings.EqualFold(string(head), "%%MatrixMarket"):
		return ReadMatrixMarket(br)
	default:
		return ReadEdgeList(br)
	}
}

// ReadGraphFile opens and parses a graph file. The file's first bytes pick
// the parser, exactly as in ReadGraph; the name's extension plays no part,
// so a Matrix Market file named .txt still parses as Matrix Market.
func ReadGraphFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadGraph(f, path)
}
