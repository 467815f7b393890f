#include "storage/durable_database.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>

#include "storage/binary_codec.h"
#include "storage/recovery.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace mad {

namespace {

namespace fs = std::filesystem;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// fsyncs a directory so a just-created or just-renamed entry inside it is
/// durable (POSIX requires syncing the containing directory, not only the
/// file).
Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("cannot open directory for fsync " + dir + ": " +
                            ErrnoMessage(errno));
  }
  Status status = Status::OK();
  if (::fsync(fd) != 0) {
    status = Status::Internal("directory fsync failed " + dir + ": " +
                              ErrnoMessage(errno));
  }
  ::close(fd);
  return status;
}

/// Writes `bytes` to `dir/filename` crash-atomically: temp file, fsync,
/// rename over the target, directory fsync. Readers either see the complete
/// new file or no file — never a torn one.
Status WriteFileAtomic(const std::string& dir, const std::string& filename,
                       const std::string& bytes) {
  std::string tmp_path = (fs::path(dir) / (filename + ".tmp")).string();
  std::string final_path = (fs::path(dir) / filename).string();

  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create " + tmp_path + ": " +
                            ErrnoMessage(errno));
  }
  const char* data = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Status::Internal("write failed " + tmp_path + ": " +
                                  ErrnoMessage(errno));
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return s;
    }
    data += n;
    left -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status s = Status::Internal("fsync failed " + tmp_path + ": " +
                                ErrnoMessage(errno));
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return s;
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    Status s = Status::Internal("rename failed " + final_path + ": " +
                                ErrnoMessage(errno));
    ::unlink(tmp_path.c_str());
    return s;
  }
  return SyncDirectory(dir);
}

}  // namespace

Result<std::unique_ptr<DurableDatabase>> DurableDatabase::Open(
    const std::string& dir, const DurabilityOptions& options) {
  auto start = std::chrono::steady_clock::now();

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create durable database directory " +
                            dir + ": " + ec.message());
  }

  MAD_ASSIGN_OR_RETURN(RecoveryResult recovered,
                       RecoverDatabase(dir, options.database_name));

  auto durable = std::unique_ptr<DurableDatabase>(new DurableDatabase());
  // Single-threaded construction: nothing else can reach the instance yet,
  // but the guarded members still want their lock for the analysis.
  MutexLock state(durable->state_mu_);
  durable->dir_ = dir;
  durable->options_ = options;
  durable->db_ = std::move(recovered.db);
  durable->generation_ = recovered.generation;
  durable->created_fresh_ = recovered.created_fresh;
  durable->checkpoints_skipped_ = recovered.checkpoints_skipped;
  durable->replayed_records_ = recovered.replayed_records;
  durable->wal_discarded_bytes_ = recovered.wal_discarded_bytes;
  durable->wal_torn_tail_ = recovered.wal_torn_tail;

  if (recovered.created_fresh) {
    // Make the empty generation-0 state durable right away: from here on the
    // directory always holds a loadable checkpoint.
    MAD_ASSIGN_OR_RETURN(std::string bytes,
                         SerializeDatabaseBinary(*durable->db_));
    MAD_RETURN_IF_ERROR(
        WriteFileAtomic(dir, CheckpointFileName(0), bytes));
  }

  WalWriterOptions wal_options;
  wal_options.sync = options.sync;
  wal_options.group_commit_bytes = options.group_commit_bytes;
  // Cut off a torn tail (or any tail we refused to replay) before the next
  // append lands behind it.
  wal_options.has_truncate_to = true;
  wal_options.truncate_to = recovered.wal_valid_bytes;
  std::string wal_path =
      (fs::path(dir) / WalFileName(durable->generation_)).string();
  MAD_ASSIGN_OR_RETURN(durable->wal_, WalWriter::Open(wal_path, wal_options));
  MAD_RETURN_IF_ERROR(SyncDirectory(dir));

  // Drop the state lock before touching the database lock: the repo-wide
  // order is database lock before state_mu_ (AddMutationListener locks it).
  state.Unlock();
  MAD_RETURN_IF_ERROR(durable->db_->AddMutationListener(durable.get()));
  durable->recovery_ms_ = MsSince(start);
  static Counter& opens = Registry::Global().GetCounter("storage.opens");
  static Counter& replayed =
      Registry::Global().GetCounter("storage.replayed_records");
  static Histogram& recovery =
      Registry::Global().GetHistogram("storage.recovery_us");
  opens.Increment();
  replayed.Add(durable->replayed_records_);
  recovery.Observe(static_cast<uint64_t>(durable->recovery_ms_ * 1000.0));
  return durable;
}

DurableDatabase::~DurableDatabase() {
  if (db_ != nullptr) {
    Status removed = db_->RemoveMutationListener(this);
    (void)removed;  // absent only if never fully opened
  }
  // WalWriter's destructor flushes the group-commit buffer best-effort.
}

Status DurableDatabase::Checkpoint() {
  ScopedSpan span("checkpoint", dir_);
  static Counter& checkpoints =
      Registry::Global().GetCounter("storage.checkpoints");
  static Histogram& latency =
      Registry::Global().GetHistogram("storage.checkpoint_us");
  checkpoints.Increment();
  ScopedTimer timer(latency);
  auto start = std::chrono::steady_clock::now();

  // The shared database lock freezes a consistent cut: no mutator (and
  // hence no listener append) can interleave between the WAL sync and the
  // serialized image, and no transaction can write between the image's
  // check that none is open and the image itself. state_mu_ then stays held
  // through the rotation so a mutation committed after the cut lands in the
  // *new* generation's WAL, never the one about to be superseded.
  ReaderLock read_lock(db_->mutex());
  MutexLock state(state_mu_);
  MAD_RETURN_IF_ERROR(append_error_);

  // Everything logged so far must be on disk before the old generation can
  // be superseded (and eventually GC'd).
  MAD_RETURN_IF_ERROR(wal_->Sync());

  MAD_ASSIGN_OR_RETURN(std::string bytes, SerializeDatabaseBinary(*db_));
  // The image is an owned copy now; writers may resume while it is written
  // out (they serialize behind state_mu_ in Log until rotation finishes).
  read_lock.Unlock();
  uint64_t new_generation = generation_ + 1;
  MAD_RETURN_IF_ERROR(
      WriteFileAtomic(dir_, CheckpointFileName(new_generation), bytes));

  // Rotate to the new generation's empty WAL. Carry the old writer's
  // counters into the session totals first.
  records_appended_base_ += wal_->records_appended();
  bytes_appended_base_ += wal_->bytes_appended();
  flush_count_base_ += wal_->flush_count();
  sync_count_base_ += wal_->sync_count();
  bool sync = wal_->sync_enabled();
  wal_.reset();

  WalWriterOptions wal_options;
  wal_options.sync = sync;
  wal_options.group_commit_bytes = options_.group_commit_bytes;
  wal_options.has_truncate_to = true;
  wal_options.truncate_to = 0;
  std::string wal_path =
      (fs::path(dir_) / WalFileName(new_generation)).string();
  MAD_ASSIGN_OR_RETURN(wal_, WalWriter::Open(wal_path, wal_options));
  MAD_RETURN_IF_ERROR(SyncDirectory(dir_));
  generation_ = new_generation;

  // GC generations older than the keep window; the previous generation's
  // checkpoint + WAL stay behind as a fallback.
  std::error_code ec;
  for (uint64_t g : ListCheckpointGenerations(dir_)) {
    if (g + options_.keep_generations < generation_) {
      fs::remove(fs::path(dir_) / CheckpointFileName(g), ec);
      fs::remove(fs::path(dir_) / WalFileName(g), ec);
    }
  }

  ++checkpoint_count_;
  last_checkpoint_bytes_ = bytes.size();
  last_checkpoint_ms_ = MsSince(start);
  static Counter& checkpoint_bytes =
      Registry::Global().GetCounter("storage.checkpoint_bytes");
  checkpoint_bytes.Add(bytes.size());
  span.set_rows_out(static_cast<int64_t>(bytes.size()));
  return Status::OK();
}

Status DurableDatabase::Flush() {
  MutexLock state(state_mu_);
  MAD_RETURN_IF_ERROR(append_error_);
  return wal_->Flush();
}

Status DurableDatabase::Sync() {
  MutexLock state(state_mu_);
  MAD_RETURN_IF_ERROR(append_error_);
  return wal_->Sync();
}

void DurableDatabase::set_sync(bool sync) {
  MutexLock state(state_mu_);
  wal_->set_sync(sync);
}

bool DurableDatabase::sync_enabled() const {
  MutexLock state(state_mu_);
  return wal_->sync_enabled();
}

DurabilityStats DurableDatabase::stats() const {
  MutexLock state(state_mu_);
  DurabilityStats stats;
  stats.directory = dir_;
  stats.generation = generation_;
  stats.sync = wal_->sync_enabled();
  stats.created_fresh = created_fresh_;
  stats.checkpoints_skipped = checkpoints_skipped_;
  stats.replayed_records = replayed_records_;
  stats.wal_discarded_bytes = wal_discarded_bytes_;
  stats.wal_torn_tail = wal_torn_tail_;
  stats.recovery_ms = recovery_ms_;
  stats.records_appended = records_appended_base_ + wal_->records_appended();
  stats.bytes_appended = bytes_appended_base_ + wal_->bytes_appended();
  stats.flush_count = flush_count_base_ + wal_->flush_count();
  stats.sync_count = sync_count_base_ + wal_->sync_count();
  stats.checkpoint_count = checkpoint_count_;
  stats.last_checkpoint_bytes = last_checkpoint_bytes_;
  stats.last_checkpoint_ms = last_checkpoint_ms_;
  return stats;
}

void DurableDatabase::Log(WalRecord record) {
  // Called from the database's mutation listener, i.e. with the database
  // lock held exclusively; state_mu_ nests inside it (docs/CONCURRENCY.md).
  MutexLock state(state_mu_);
  Status appended = wal_->Append(record);
  if (!appended.ok() && append_error_.ok()) append_error_ = appended;
}

void DurableDatabase::OnDefineAtomType(const std::string& aname,
                                       const Schema& description) {
  WalRecord record;
  record.kind = WalRecord::Kind::kDefineAtomType;
  record.name = aname;
  record.schema = description;
  Log(std::move(record));
}

void DurableDatabase::OnDefineLinkType(const std::string& lname,
                                       const std::string& first,
                                       const std::string& second,
                                       LinkCardinality cardinality) {
  WalRecord record;
  record.kind = WalRecord::Kind::kDefineLinkType;
  record.name = lname;
  record.first = first;
  record.second = second;
  record.cardinality = cardinality;
  Log(std::move(record));
}

void DurableDatabase::OnDropAtomType(const std::string& aname) {
  WalRecord record;
  record.kind = WalRecord::Kind::kDropAtomType;
  record.name = aname;
  Log(std::move(record));
}

void DurableDatabase::OnDropLinkType(const std::string& lname) {
  WalRecord record;
  record.kind = WalRecord::Kind::kDropLinkType;
  record.name = lname;
  Log(std::move(record));
}

void DurableDatabase::OnInsertAtom(const std::string& aname,
                                   const Atom& atom) {
  WalRecord record;
  record.kind = WalRecord::Kind::kInsertAtom;
  record.name = aname;
  record.id = atom.id.value;
  record.values = atom.values;
  Log(std::move(record));
}

void DurableDatabase::OnUpdateAtom(const std::string& aname,
                                   const Atom& atom) {
  WalRecord record;
  record.kind = WalRecord::Kind::kUpdateAtom;
  record.name = aname;
  record.id = atom.id.value;
  record.values = atom.values;
  Log(std::move(record));
}

void DurableDatabase::OnDeleteAtom(const std::string& aname, AtomId id) {
  WalRecord record;
  record.kind = WalRecord::Kind::kDeleteAtom;
  record.name = aname;
  record.id = id.value;
  Log(std::move(record));
}

void DurableDatabase::OnInsertLink(const std::string& lname, AtomId first,
                                   AtomId second) {
  WalRecord record;
  record.kind = WalRecord::Kind::kInsertLink;
  record.name = lname;
  record.id = first.value;
  record.id2 = second.value;
  Log(std::move(record));
}

void DurableDatabase::OnEraseLink(const std::string& lname, AtomId first,
                                  AtomId second) {
  WalRecord record;
  record.kind = WalRecord::Kind::kEraseLink;
  record.name = lname;
  record.id = first.value;
  record.id2 = second.value;
  Log(std::move(record));
}

void DurableDatabase::OnCreateIndex(const std::string& aname,
                                    const std::string& attribute) {
  WalRecord record;
  record.kind = WalRecord::Kind::kCreateIndex;
  record.name = aname;
  record.attribute = attribute;
  Log(std::move(record));
}

void DurableDatabase::OnDropIndex(const std::string& aname,
                                  const std::string& attribute) {
  WalRecord record;
  record.kind = WalRecord::Kind::kDropIndex;
  record.name = aname;
  record.attribute = attribute;
  Log(std::move(record));
}

}  // namespace mad
