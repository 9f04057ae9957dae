// Command cablepipe runs the CABLE streaming codec over a byte pipe:
// stdin/stdout by default, or a one-shot TCP socket pair.
//
// Usage:
//
//	cablepipe -encode < file > file.cbl          # compress a stream
//	cablepipe -decode < file.cbl > file          # decompress it
//	cablepipe -encode -connect host:9000 < file  # ship encoded bytes over TCP
//	cablepipe -decode -listen :9000 > file       # receive and decode them
//	cablepipe -encode -listen :9000 < file       # or serve the encoder side
//	cablepipe -encode -stats < file > /dev/null  # MB/s + ratio on stderr
//
// Exactly one of -encode/-decode is required. With -listen the process
// accepts a single connection, serves it, and exits; with -connect it
// dials once. The encoder writes to the socket and the decoder reads
// from it, so `cablepipe -encode -connect` pairs with
// `cablepipe -decode -listen` (and vice versa with the roles of
// listener and dialer swapped).
//
// Every encoded stream closes with an end frame, so -decode fails (exit
// 1, the cause on stderr) on input that stops anywhere before it: an
// empty file, a file cut short — on a frame boundary too — or a peer
// that went away. A damaged stream fails at the first frame whose CRC
// does not match, before any of that frame is written out.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"cable/internal/codec"
)

func main() {
	encode := flag.Bool("encode", false, "compress stdin (or the socket peer's stream)")
	decode := flag.Bool("decode", false, "decompress to stdout")
	listen := flag.String("listen", "", "accept one TCP connection on this address for the encoded side")
	connect := flag.String("connect", "", "dial this TCP address for the encoded side")
	batch := flag.Int("batch", 32, "lines per encoded frame")
	dict := flag.Int("dict", 1<<20, "dictionary size in bytes (both sides)")
	ways := flag.Int("ways", 8, "dictionary associativity")
	line := flag.Int("line", 64, "line size in bytes")
	engine := flag.String("engine", "lbe", "per-line compression engine")
	stats := flag.Bool("stats", false, "print throughput and ratio to stderr")
	flag.Parse()

	if *encode == *decode {
		fatal(fmt.Errorf("exactly one of -encode or -decode is required"))
	}
	if *listen != "" && *connect != "" {
		fatal(fmt.Errorf("-listen and -connect are mutually exclusive"))
	}

	// The encoded side of the pipe: stdout/stdin unless a socket is asked
	// for. The plaintext side is always the other standard stream.
	var encodedW io.Writer = os.Stdout
	var encodedR io.Reader = os.Stdin
	if sock, err := dialOrListen(*listen, *connect); err != nil {
		fatal(err)
	} else if sock != nil {
		defer sock.Close()
		encodedW, encodedR = sock, sock
	}

	opt := codec.Options{
		LineSize:  *line,
		DictBytes: *dict,
		DictWays:  *ways,
		Engine:    *engine,
		Batch:     *batch,
	}

	start := time.Now()
	var st codec.StreamStats
	var err error
	if *encode {
		st, err = runEncode(encodedW, os.Stdin, opt)
	} else {
		st, err = runDecode(os.Stdout, encodedR)
	}
	if err != nil {
		fatal(err)
	}
	if *stats {
		el := time.Since(start).Seconds()
		plain := st.InBytes
		fmt.Fprintf(os.Stderr, "%d bytes in, %d bytes out, ratio %.3f, %.1f MB/s, %v\n",
			st.InBytes, st.OutBytes, st.Ratio(), float64(plain)/1e6/el, time.Since(start).Round(time.Millisecond))
	}
}

func dialOrListen(listen, connect string) (net.Conn, error) {
	switch {
	case listen != "":
		l, err := net.Listen("tcp", listen)
		if err != nil {
			return nil, err
		}
		defer l.Close()
		return l.Accept()
	case connect != "":
		return net.Dial("tcp", connect)
	default:
		return nil, nil
	}
}

func runEncode(dst io.Writer, src io.Reader, opt codec.Options) (codec.StreamStats, error) {
	e, err := codec.NewEncoder(dst, opt)
	if err != nil {
		return codec.StreamStats{}, err
	}
	if _, err := io.Copy(e, src); err != nil {
		return e.Stats, err
	}
	if err := e.Close(); err != nil {
		return e.Stats, err
	}
	// Half-close the socket so the decoding peer sees EOF.
	if c, ok := dst.(*net.TCPConn); ok {
		c.CloseWrite()
	}
	return e.Stats, nil
}

func runDecode(dst io.Writer, src io.Reader) (codec.StreamStats, error) {
	d := codec.NewDecoder(src)
	if _, err := io.Copy(dst, d); err != nil {
		return d.Stats, err
	}
	return d.Stats, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cablepipe:", err)
	os.Exit(1)
}
