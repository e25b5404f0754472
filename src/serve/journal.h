#ifndef CPDG_SERVE_JOURNAL_H_
#define CPDG_SERVE_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/event.h"
#include "util/status.h"

namespace cpdg::serve {

/// \file On-disk advance journal (CPDG_SERVE_JOURNAL_DIR).
///
/// Makes a restarted *process* recover its advances: every Advance
/// appends one entry file before it publishes the new memory snapshot,
/// and FromCheckpoint replays the directory onto the checkpoint's memory
/// before serving.
///
/// Format: each entry reuses the storage layer's delta-file framing
/// (storage::FileHeader kind=kDelta | raw graph::Event records |
/// storage::FileFooter with payload CRC32), written through
/// util::AtomicFileSink so readers only ever observe complete files — the
/// same durability recipe, the same fault-injection hooks, and the same
/// validation path as the graph store's append log. Entries are named by
/// consecutive sequence numbers from 0; the journal's commit point is the
/// rename of entry N, so a crash mid-append leaves entries 0..N-1 intact.
///
/// The journal is relative to one checkpoint: entries replay on top of the
/// checkpoint's memory snapshot. Pointing an engine at a new checkpoint
/// requires an empty (or cleared) journal directory — see
/// docs/OPERATIONS.md.

/// Path of journal entry `seq` inside `dir`.
std::string JournalEntryPath(const std::string& dir, int64_t seq);

/// \brief Durably appends entry `seq` (creating `dir` first if missing).
/// `events` must be non-empty and reference nodes in [0, num_nodes); the
/// engine validates before calling. Any IO failure leaves entries
/// 0..seq-1 readable and entry seq absent.
Status AppendJournalEntry(const std::string& dir, int64_t seq,
                          int64_t num_nodes,
                          const std::vector<graph::Event>& events);

/// \brief Loads entries 0, 1, ... until the first missing file, validating
/// framing, CRC, node range, and the num_nodes stamp of every entry.
/// A missing directory is an empty journal, not an error; a corrupt or
/// out-of-range entry is an IoError (the operator must restore or clear
/// the directory — serving silently without journaled advances would
/// diverge from the fleet the journal records).
Result<std::vector<std::vector<graph::Event>>> LoadJournal(
    const std::string& dir, int64_t num_nodes);

}  // namespace cpdg::serve

#endif  // CPDG_SERVE_JOURNAL_H_
