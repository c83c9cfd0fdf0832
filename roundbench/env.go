package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// environment is the record every result carries.
type environment struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// SourceDigest is a SHA-256 over the module's go.mod and .go files,
	// which names the code measured even where no commit is known.
	SourceDigest string `json:"source_digest"`
	StateDirFS   string `json:"state_dir_fs"`
	Network      string `json:"network"`
}

func describeEnvironment(sourceRoot, stateDir string) environment {
	return environment{
		Cores:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest(sourceRoot),
		StateDirFS:   filesystem(stateDir),
		Network: "every leg crossed in-memory net.Pipe connections (transport.Mem) inside one process; " +
			"no kernel network and no OS sockets",
	}
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += " (with uncommitted changes)"
			}
			return rev
		}
	}
	return "unknown (not built from a git checkout)"
}

func sourceDigest(root string) string {
	if root == "" {
		return "unknown"
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// filesystem names the filesystem type behind dir from its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
		0x01021997: "9p",
	}
	t := int64(st.Type)
	if n, ok := names[t]; ok {
		return fmt.Sprintf("%s (statfs type 0x%x)", n, t)
	}
	return fmt.Sprintf("statfs type 0x%x", t)
}
