// Package container models container images and the three runtimes of
// the study — Docker, Singularity, and Shifter — plus bare metal as the
// reference "runtime".
//
// Two image-building techniques from the paper's portability section
// are first-class: a *system-specific* image binds the host's MPI and
// fabric stack at run time (fast network, zero portability across
// hosts), while a *self-contained* image bundles a generic MPI (runs
// anywhere with the right ISA, TCP only). The execution profiles the
// runtimes hand to the MPI layer encode exactly these trade-offs.
package container

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/topology"
	"repro/internal/units"
)

// Format is the on-disk image format.
type Format int

// Image formats.
const (
	// FormatOCI is a Docker-style stack of compressed layers.
	FormatOCI Format = iota
	// FormatSIF is Singularity's single squashed image file.
	FormatSIF
	// FormatSquashFS is Shifter's gateway-produced loop-mount image.
	FormatSquashFS
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatOCI:
		return "oci-layers"
	case FormatSIF:
		return "sif"
	case FormatSquashFS:
		return "squashfs"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// BuildKind is the image-building technique.
type BuildKind int

// Building techniques.
const (
	// SystemSpecific images bind the host MPI/fabric stack at run time.
	SystemSpecific BuildKind = iota
	// SelfContained images bundle a generic MPI with TCP support only.
	SelfContained
)

// String names the build kind.
func (k BuildKind) String() string {
	switch k {
	case SystemSpecific:
		return "system-specific"
	case SelfContained:
		return "self-contained"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Layer is one content-addressed image layer.
type Layer struct {
	// Digest is the content address (sha256 of the synthetic content
	// description, so identical build steps dedup across images).
	Digest string
	// Size is the uncompressed layer size.
	Size units.ByteSize
	// CompressedSize is the on-wire size.
	CompressedSize units.ByteSize
	// Description says what the layer holds, e.g. "centos-7.4 base".
	Description string
}

// NewLayer builds a layer whose digest derives from its description and
// size, making builds reproducible and dedup meaningful.
func NewLayer(desc string, size, compressed units.ByteSize) Layer {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%.0f", desc, float64(size))))
	return Layer{
		Digest:         hex.EncodeToString(h[:]),
		Size:           size,
		CompressedSize: compressed,
		Description:    desc,
	}
}

// Image is a built container image.
type Image struct {
	// Name and Tag identify the image in the registry.
	Name string
	Tag  string
	// Arch is the ISA the binaries were compiled for; execution on a
	// different ISA fails with ErrWrongArch.
	Arch topology.ISA
	// Format is the on-disk representation.
	Format Format
	// Kind is the building technique.
	Kind BuildKind
	// HostABI, for system-specific images, names the host stack the
	// image binds; it must match the target cluster's HostABI.
	HostABI string
	// MPIStack documents the MPI implementation inside the image.
	MPIStack string
	// Layers composes the image (a single layer for SIF/SquashFS).
	Layers []Layer
}

// Ref returns the registry reference name:tag.
func (img *Image) Ref() string { return img.Name + ":" + img.Tag }

// Size returns the uncompressed image size.
func (img *Image) Size() units.ByteSize {
	var s units.ByteSize
	for _, l := range img.Layers {
		s += l.Size
	}
	return s
}

// CompressedSize returns the on-wire image size.
func (img *Image) CompressedSize() units.ByteSize {
	var s units.ByteSize
	for _, l := range img.Layers {
		s += l.CompressedSize
	}
	return s
}

// BuildSpec describes an image to build.
type BuildSpec struct {
	// Name and Tag for the registry.
	Name string
	Tag  string
	// Arch is the target ISA.
	Arch topology.ISA
	// Kind selects the building technique.
	Kind BuildKind
	// HostABI is required for system-specific builds: the host stack
	// the image will bind (a cluster's HostABI value).
	HostABI string
	// App is the application bundle name, e.g. "alya".
	App string
}

// Component sizes of the synthetic Alya image, calibrated to land the
// total near the ~1.5–2.5 GB images the study worked with.
const (
	baseOSSize      = 210 * units.MiB // minimal CentOS-class userland
	toolchainSize   = 480 * units.MiB // compilers' runtime libs, numactl, perf tools
	genericMPISize  = 640 * units.MiB // bundled OpenMPI + libfabric + IPoverything
	hostShimSize    = 45 * units.MiB  // bind-mount glue for the host MPI stack
	alyaAppSize     = 520 * units.MiB // Alya binaries, modules, default input decks
	compressionOCI  = 0.46            // gzip layer ratio
	compressionSIF  = 0.38            // squashfs with xz, single pass over everything
	compressionSqFS = 0.41            // shifter gateway squashfs (gzip)
)

// BuildOCI builds a Docker-style layered image from the spec. This is
// the "docker build" everyone starts from; SIF and SquashFS images are
// derived from it by conversion.
func BuildOCI(spec BuildSpec) (*Image, error) {
	if spec.Name == "" || spec.App == "" {
		return nil, fmt.Errorf("container: build spec needs a name and an app")
	}
	if spec.Tag == "" {
		spec.Tag = "latest"
	}
	if spec.Kind == SystemSpecific && spec.HostABI == "" {
		return nil, fmt.Errorf("container: system-specific build of %s needs a host ABI", spec.Name)
	}
	if spec.Kind == SelfContained {
		spec.HostABI = ""
	}
	mkLayer := func(desc string, size units.ByteSize) Layer {
		return NewLayer(fmt.Sprintf("%s/%s", spec.Arch, desc), size, units.ByteSize(float64(size)*compressionOCI))
	}
	layers := []Layer{
		mkLayer("base-os", baseOSSize),
		mkLayer("toolchain", toolchainSize),
	}
	mpi := "host-bound (" + spec.HostABI + ")"
	if spec.Kind == SelfContained {
		layers = append(layers, mkLayer("generic-mpi", genericMPISize))
		mpi = "bundled OpenMPI (TCP BTL only)"
	} else {
		layers = append(layers, mkLayer("host-mpi-shim/"+spec.HostABI, hostShimSize))
	}
	layers = append(layers, mkLayer("app/"+spec.App, alyaAppSize))
	return &Image{
		Name:     spec.Name,
		Tag:      spec.Tag,
		Arch:     spec.Arch,
		Format:   FormatOCI,
		Kind:     spec.Kind,
		HostABI:  spec.HostABI,
		MPIStack: mpi,
		Layers:   layers,
	}, nil
}

// ConvertToSIF squashes an OCI image into a Singularity SIF file.
func ConvertToSIF(img *Image) (*Image, error) {
	return convertFlat(img, FormatSIF, compressionSIF, "sif")
}

// ConvertToSquashFS squashes an OCI image into a Shifter squashfs
// (what the Shifter image gateway produces from a Docker image).
func ConvertToSquashFS(img *Image) (*Image, error) {
	return convertFlat(img, FormatSquashFS, compressionSqFS, "squashfs")
}

func convertFlat(img *Image, f Format, ratio float64, suffix string) (*Image, error) {
	if img.Format != FormatOCI {
		return nil, fmt.Errorf("container: can only convert OCI images, got %v", img.Format)
	}
	size := img.Size()
	flat := NewLayer(fmt.Sprintf("%s/%s/%s", img.Arch, img.Ref(), suffix),
		size, units.ByteSize(float64(size)*ratio))
	out := *img
	out.Format = f
	out.Layers = []Layer{flat}
	return &out, nil
}

// Compatibility errors.
var (
	// ErrWrongArch: image ISA does not match the host ISA ("exec format
	// error" in real life).
	ErrWrongArch = fmt.Errorf("container: image architecture does not match host")
	// ErrHostABI: a system-specific image was built against a different
	// host stack and its bind mounts cannot resolve.
	ErrHostABI = fmt.Errorf("container: system-specific image does not match host MPI/fabric stack")
	// ErrNeedsRoot: the runtime requires administrative rights the
	// study did not have on this machine.
	ErrNeedsRoot = fmt.Errorf("container: runtime requires administrative rights on the cluster")
	// ErrWrongFormat: the runtime cannot execute this image format.
	ErrWrongFormat = fmt.Errorf("container: runtime cannot execute this image format")
)
