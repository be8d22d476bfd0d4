//===-- image/Snapshot.h - Crash-consistent image save/load -----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Image snapshots: "a static representation or 'snapshot' of the
/// compiled code, class descriptions, etc." (paper footnote 2). The §3.3
/// reorganization touches exactly this path: because MS ignores the
/// ProcessorScheduler's activeProcess slot at run time, "the only
/// requirement is to fill in the activeProcess slot before taking a
/// snapshot and to empty it afterwards" — which saveSnapshot does.
///
/// The snapshot is the VM's only durability mechanism, so this layer is
/// built crash-consistent:
///
///  - **Format v2** ("MST2"): a fixed header, then length-prefixed
///    sections (object graph, well-known root table, symbol table) each
///    carrying its own CRC-32, then a trailer with the total file length
///    and a whole-file CRC-32. Every corruption class — truncation, bit
///    flips, a torn tail, an unrelated file — is detectable before any
///    byte is decoded.
///  - **Atomic durability**: the writer serializes to a per-save unique
///    temp file (`<path>.tmp.<pid>.<seq>`), fsyncs it, then renames over
///    the target and fsyncs the directory. The target path never holds a
///    torn image, and concurrent saves to the same path are serialized so
///    rotation and rename never interleave. With
///    SnapshotOptions::KeepGenerations = N, the previous images rotate to
///    `<path>.1` … `<path>.N` before the rename. Without rotation a crash
///    at any point leaves the old image or the new one at `<path>`; with
///    it, a crash between the rotation and the rename leaves no `<path>`
///    at all, and the old image at `<path>.1`, where the recovery ladder
///    finds it.
///  - **Hardened loader**: every read is bounds-checked against its
///    section, every section CRC-verified before decoding, and the whole
///    object graph is structurally validated (reference ranges, formats,
///    live-slot counts) before the first shell is allocated — so a bad
///    file fails with a diagnostic naming the section and byte offset,
///    never a crash, and leaves the VM untouched.
///  - **Recovery ladder**: when the primary image fails verification,
///    loadSnapshot falls back through the rotated generations
///    (`<path>.1`, `<path>.2`, …), counting each step in the
///    `img.load.fallbacks` telemetry counter.
///
/// Chaos fail points `io.write.fail`, `io.fsync.fail`, and
/// `snapshot.truncate` (armed via MST_CHAOS_IO_WRITE_FAIL_PM /
/// MST_CHAOS_IO_FSYNC_FAIL_PM / MST_CHAOS_SNAPSHOT_TRUNCATE_PM) inject
/// write errors and simulated mid-save crashes so the stress suite can
/// prove the target path always loads.
///
/// The writer serializes every object reachable from the well-known
/// objects (classes, methods, globals, processes — the whole image) with
/// identity hashes preserved, so method-dictionary probing works
/// unchanged after a load. The loader materializes everything into the
/// non-moving old generation of a *fresh* VM and rebinds the well-known
/// table and the symbol table.
///
//===----------------------------------------------------------------------===//

#ifndef MST_IMAGE_SNAPSHOT_H
#define MST_IMAGE_SNAPSHOT_H

#include <string>

#include "vm/VirtualMachine.h"

namespace mst {

/// Durability policy for saveSnapshot.
struct SnapshotOptions {
  /// Number of rotated previous generations to keep: before the new image
  /// is renamed into place, the current `<path>` moves to `<path>.1`,
  /// `<path>.1` to `<path>.2`, and so on up to `<path>.N`. 0 keeps none
  /// (the previous image is replaced atomically but not preserved).
  unsigned KeepGenerations = 0;

  /// When set, the image carries an optional fourth section ("JPOS")
  /// recording the request-journal high-water mark this snapshot covers:
  /// every journaled request with a logical position below JournalMark
  /// has its effects inside this image, so replay-on-reboot starts at
  /// the mark and journal truncation may (after the rename lands) drop
  /// everything below it. Images written without the mark stay
  /// three-section and byte-identical to images from before the mark.
  bool HasJournalMark = false;
  uint64_t JournalMark = 0;
};

/// Out-of-band facts about a loaded image that are not part of the object
/// graph. Filled by loadSnapshot/loadSnapshotExact when requested.
struct SnapshotInfo {
  /// Journal high-water mark from the image's JPOS section, when present.
  bool HasJournalMark = false;
  uint64_t JournalMark = 0;
};

/// Writes \p VM's image to \p Path using the atomic tmp+fsync+rename
/// protocol. Must run on a thread registered as a mutator with \p VM's
/// object memory: the writer stops the world while it serializes, then
/// performs the file I/O with the world running. The repl and the
/// serving shards call it from the thread that owns the VM, between
/// requests, so an image never holds half of one. Concurrent saves to the
/// same \p Path string are serialized internally, and every save writes
/// through its own unique temp file, so each rename publishes a complete
/// image.
/// \returns false with \p Error set (including errno text and the failing
/// byte offset for I/O errors) on failure; the target path is never left
/// torn. Once the rename has landed the save reports success even if the
/// trailing directory fsync fails (the image is in place and loadable; a
/// warning notes the rename may not survive power loss).
bool saveSnapshot(VirtualMachine &VM, const std::string &Path,
                  std::string &Error,
                  const SnapshotOptions &Opts = SnapshotOptions());

/// The emergency image: while one lives, a panic (support/Panic.h) saves
/// \p VM to `<Path>.panic`, so a panicking VM leaves a restartable image
/// next to its postmortem dump (counted in `img.save.emergency`). Best
/// effort by design, since it runs on whatever thread panicked: it is
/// skipped when a stop-the-world pause is already in progress (say, a
/// heap-verification panic mid-GC) or the panicking thread is not a
/// registered mutator, where a save would hang or corrupt the rendezvous.
/// Construct after the VM, destroy before it.
class EmergencySnapshot {
public:
  EmergencySnapshot(VirtualMachine &VM, const std::string &Path);
  ~EmergencySnapshot();

  EmergencySnapshot(const EmergencySnapshot &) = delete;
  EmergencySnapshot &operator=(const EmergencySnapshot &) = delete;

private:
  int Section; ///< the panic section's id
};

/// How a failed load left the VM. Verification runs entirely against the
/// file buffer, so everything up to and including it fails with the VM
/// untouched; materialization allocates into the heap from its first
/// step, so a failure there leaves the VM mutated (shells allocated, hash
/// counter raised) and no longer "freshly constructed".
enum class SnapshotLoadFailure {
  None,      ///< the load succeeded
  CleanVm,   ///< failed before touching the VM (I/O, verification)
  VmMutated, ///< failed during materialization; the VM is not fresh
};

/// Loads the image at \p Path into \p VM, which must be freshly
/// constructed (no bootstrapImage, no interpreters started). The core
/// objects created by VM construction are abandoned in old space; every
/// well-known binding and the symbol table are rebound to the loaded
/// graph. When \p Path fails verification, falls back through the rotated
/// generations `<path>.1`, `<path>.2`, … (each fallback counted in
/// `img.load.fallbacks`). A file that fails verification never mutates
/// the VM, so a later generation loads into a clean slate — but a
/// candidate that fails while *materializing* has already mutated the VM,
/// so the ladder stops there: retrying the remaining generations needs a
/// freshly constructed VM. \returns false with \p Error set to the
/// per-candidate diagnostics (section, offset, expected vs. actual) when
/// no generation loads.
bool loadSnapshot(VirtualMachine &VM, const std::string &Path,
                  std::string &Error, SnapshotInfo *Info = nullptr);

/// Loads exactly \p Path — no generation fallback. The primitive the
/// ladder is built from; corruption tests call it directly. \p Failure,
/// when non-null, reports whether a failed load left the VM untouched
/// (safe to try another candidate) or already mutated. \p Info, when
/// non-null, receives the image's journal mark (JPOS section) if it has
/// one.
bool loadSnapshotExact(VirtualMachine &VM, const std::string &Path,
                       std::string &Error,
                       SnapshotLoadFailure *Failure = nullptr,
                       SnapshotInfo *Info = nullptr);

/// fsyncs the directory containing \p Path, so that a file created or
/// renamed into it survives a power loss. Snapshot saves and the serving
/// layer's request journal both commit through it. The
/// `io.dirfsync.fail` chaos point fails it. \returns false with \p Error
/// set on failure.
bool fsyncDirectoryOf(const std::string &Path, std::string &Error);

/// The canonical per-shard checkpoint path for the serving layer: shard
/// \p Shard of a pool rooted at \p Dir checkpoints to
/// `<Dir>/shard<NNN>.image` (zero-padded so a directory listing sorts).
/// Rotated generations and the `.panic` emergency image hang off this
/// name exactly as for any other snapshot path.
std::string shardImagePath(const std::string &Dir, unsigned Shard);

} // namespace mst

#endif // MST_IMAGE_SNAPSHOT_H
