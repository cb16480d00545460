package rpc

import (
	"errors"
	"io"
	"sync"
)

// Message bodies move whole, through pooled buffers. The ownership rule:
// whoever takes a buffer with getBuffer gives it back with putBuffer once
// no reader or writer can touch its bytes again, and nothing that outlives
// that point may point into it — the decoders copy every string and number
// out, and net/http copies what Write is handed. The one holder that cannot
// tell by itself when it is done is the client's upload, which net/http may
// still be sending after Do returns; see upload.
//
// The server's decoded requests follow the same rule one level up. A
// handler takes a requestArena with getArena, decodes the upload into it and
// gives it back with putArena when it returns; between the two, the
// request's Frames — and every *video.Frame, Proposals, Features and GT
// reached through them — belong to that handler alone. It lends them to the
// cloud for the length of the Admit and LabelFrames calls and to no one for
// longer: cloud keeps no frame past LabelFrames (see its doc), and the reply
// is built from the teacher's own label slices, never from arena memory, so
// encoding it cannot read a recycled arena. DecodeLabelRequest, which the
// client, the fuzzers and the benchmark call, decodes onto fresh memory the
// caller owns outright.

// bufferPool holds *[]byte so that Put does not allocate a slice header.
var bufferPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuffer() *[]byte { return bufferPool.Get().(*[]byte) }

// putBuffer returns buf, keeping whatever capacity it grew to.
func putBuffer(buf *[]byte) {
	*buf = (*buf)[:0]
	bufferPool.Put(buf)
}

// arenaPool holds the request arenas of handlers that have returned. Like a
// pooled buffer, an arena keeps the capacity of the largest request it has
// held, until the garbage collector empties the pool.
var arenaPool = sync.Pool{New: func() any { return new(requestArena) }}

func getArena() *requestArena { return arenaPool.Get().(*requestArena) }

// putArena returns a, emptied: an arena in the pool holds no pointer.
func putArena(a *requestArena) {
	a.reset()
	arenaPool.Put(a)
}

// errBodyTooLarge reports a body that ran past the limit readBody was given.
var errBodyTooLarge = errors.New("rpc: body exceeds the size cap")

// readBody reads src to EOF into *buf, replacing its contents, and stops
// with errBodyTooLarge as soon as more than limit bytes have arrived.
// declared is the Content-Length, or negative when unknown; a caller that
// wants a declared oversize refused without reading checks that first.
func readBody(src io.Reader, buf *[]byte, declared int64, limit int) error {
	b := (*buf)[:0]
	// Room for the whole body plus the read that finds EOF, so a body of
	// known length is never regrown.
	if want := int(min(declared, int64(limit))) + 512; cap(b) < want {
		b = make([]byte, 0, want)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		// Never read further than one byte past the limit.
		window := b[len(b):min(cap(b), limit+1)]
		n, err := src.Read(window)
		b = b[:len(b)+n]
		*buf = b
		if len(b) > limit {
			return errBodyTooLarge
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
