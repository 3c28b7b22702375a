// Command datagen emits paper-shaped evaluation tensors (Table III) in
// the repository's text or binary tensor format.
//
// Usage:
//
//	datagen -dataset clothing -nnz 100000 -seed 42 -o clothing.tsv
//	datagen -dataset synthetic -nnz 500000 -format binary -o synthetic.bin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dismastd"
)

var kinds = map[string]dismastd.DatasetKind{
	"clothing":  dismastd.DatasetClothing,
	"book":      dismastd.DatasetBook,
	"netflix":   dismastd.DatasetNetflix,
	"synthetic": dismastd.DatasetSynthetic,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ds := fs.String("dataset", "synthetic", "dataset kind: clothing, book, netflix, synthetic")
	nnz := fs.Int("nnz", 100000, "target number of non-zero entries")
	seed := fs.Uint64("seed", 42, "generator seed")
	out := fs.String("o", "", "output path (default stdout)")
	format := fs.String("format", "", "text or binary (default from extension: .bin = binary)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	kind, ok := kinds[strings.ToLower(*ds)]
	if !ok {
		return fmt.Errorf("unknown dataset %q (clothing, book, netflix, synthetic)", *ds)
	}
	if *nnz <= 0 {
		return fmt.Errorf("-nnz must be positive")
	}
	switch *format {
	case "", "text", "binary":
	default:
		return fmt.Errorf("unknown format %q (text or binary)", *format)
	}

	t := dismastd.GenerateDataset(kind, *nnz, *seed)

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	binary := *format == "binary" || (*format == "" && strings.HasSuffix(*out, ".bin"))
	var err error
	if binary {
		err = dismastd.WriteTensorBinary(w, t)
	} else {
		err = dismastd.WriteTensorText(w, t)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "datagen: %s dims=%v nnz=%d\n", kind, t.Dims, t.NNZ())
	return nil
}
