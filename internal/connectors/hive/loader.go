package hive

import (
	"fmt"

	"prestolite/internal/block"
	"prestolite/internal/fsys"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/types"
)

// Loader writes tables into a hive warehouse layout: registers them in the
// metastore and lays files out as <location>/<key>=<value>/part-N on the
// filesystem. Used by examples, tests and the benchmark harness (the
// engine's write path — CTAS — is out of scope for this reproduction; the
// paper's ETL write benchmarks drive the writers directly, as Fig 18-20 do).
type Loader struct {
	MS *metastore.Metastore
	FS fsys.FileSystem
	// Writer selects the file writer; default native.
	UseLegacyWriter bool
	// WriterOptions apply to every file.
	WriterOptions parquet.WriterOptions
}

// CreateTable registers an unpartitioned table and writes its pages as one
// file per page batch.
func (l *Loader) CreateTable(schema, table string, cols []metastore.Column, pages []*block.Page) error {
	location := fmt.Sprintf("/warehouse/%s/%s", schema, table)
	if _, err := l.MS.CreateTable(schema, table, location, cols, nil); err != nil {
		return err
	}
	return l.writeFiles(location, cols, pages)
}

// CreatePartitionedTable registers a table partitioned by one key and
// writes per-partition data. partitions maps partition value → pages;
// sealed marks which partitions are immutable.
func (l *Loader) CreatePartitionedTable(schema, table string, cols []metastore.Column, partitionKey string, partitions map[string][]*block.Page, sealed map[string]bool) error {
	location := fmt.Sprintf("/warehouse/%s/%s", schema, table)
	if _, err := l.MS.CreateTable(schema, table, location, cols, []string{partitionKey}); err != nil {
		return err
	}
	for value, pages := range partitions {
		if err := l.AddPartition(schema, table, partitionKey, value, pages, sealed[value]); err != nil {
			return err
		}
	}
	return nil
}

// AddPartition writes one partition's files and registers it.
func (l *Loader) AddPartition(schema, table, key, value string, pages []*block.Page, isSealed bool) error {
	t, err := l.MS.GetTable(schema, table)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s=%s", key, value)
	dir := t.Location + "/" + name
	if err := l.writeFiles(dir, t.Columns, pages); err != nil {
		return err
	}
	return l.MS.AddPartition(schema, table, metastore.Partition{Name: name, Location: dir, Sealed: isSealed})
}

func (l *Loader) writeFiles(dir string, cols []metastore.Column, pages []*block.Page) error {
	if len(pages) == 0 {
		// Touch the directory with an empty file so listings succeed.
		w, err := l.FS.Create(dir + "/.keep")
		if err != nil {
			return err
		}
		return w.Close()
	}
	for i, page := range pages {
		if err := l.writeOne(fmt.Sprintf("%s/part-%05d", dir, i), cols, []*block.Page{page}); err != nil {
			return err
		}
	}
	return nil
}

func (l *Loader) writeOne(path string, cols []metastore.Column, pages []*block.Page) error {
	names := make([]string, len(cols))
	colTypes := make([]*types.Type, len(cols))
	for i, c := range cols {
		names[i] = c.Name
		colTypes[i] = c.Type
	}
	schema, err := parquet.NewSchema(names, colTypes)
	if err != nil {
		return err
	}
	w, err := l.FS.Create(path)
	if err != nil {
		return err
	}
	if l.UseLegacyWriter {
		pw, err := parquet.NewLegacyWriter(w, schema, l.WriterOptions)
		if err != nil {
			return err
		}
		for _, p := range pages {
			if err := pw.WritePage(p); err != nil {
				return err
			}
		}
		if err := pw.Close(); err != nil {
			return err
		}
	} else {
		pw, err := parquet.NewNativeWriter(w, schema, l.WriterOptions)
		if err != nil {
			return err
		}
		for _, p := range pages {
			if err := pw.WritePage(p); err != nil {
				return err
			}
		}
		if err := pw.Close(); err != nil {
			return err
		}
	}
	return w.Close()
}
