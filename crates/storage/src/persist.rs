//! On-disk persistence of the serialized index files.
//!
//! The in-memory [`WordListFile`]/[`PhraseListFile`] images (whose *layout*
//! is the paper's: 12-byte scored entries, 50-byte phrase slots) can be
//! written to real files and reloaded, so the expensive offline build runs
//! once and query processes start cold from disk. The container format is
//! deliberately simple and fully validated on load:
//!
//! ```text
//! [magic: 4 bytes]["IPW1" word lists | "IPP1" phrase list]
//! [header fields: little-endian u64s]
//! [directory (word lists only): (feature_code u64, start u64, len u64)*]
//! [data blob]
//! [crc32 of everything above: u32]
//! ```
//!
//! Every load failure is a typed [`PersistError`] — corrupt indexes must
//! never panic a serving process.

use crate::checksum::{crc32, Crc32};
use crate::files::{ListRun, PhraseListFile, WordListFile, PHRASE_ENTRY_BYTES};
use bytes::Bytes;
use ipm_corpus::hash::FxHashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const WORD_MAGIC: &[u8; 4] = b"IPW1";
const PHRASE_MAGIC: &[u8; 4] = b"IPP1";

/// Load/store failures.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic.
    BadMagic,
    /// Header fields are internally inconsistent (e.g. lengths overflow the
    /// file size).
    Corrupt(&'static str),
    /// The trailing CRC-32 does not match the content.
    ChecksumMismatch { expected: u32, actual: u32 },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic => write!(f, "not an interesting-phrases index file"),
            PersistError::Corrupt(what) => write!(f, "corrupt index file: {what}"),
            PersistError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

// ---------- word-list file ---------------------------------------------------

/// Writes a [`WordListFile`] to `path`.
pub fn save_word_lists<P: AsRef<Path>>(file: &WordListFile, path: P) -> Result<(), PersistError> {
    let mut w = HashingWriter::new(BufWriter::new(File::create(path)?));
    w.write_all(WORD_MAGIC)?;
    w.write_u64(file.directory.len() as u64)?;
    w.write_u64(file.total_entries as u64)?;
    w.write_u64(file.data.len() as u64)?;
    // Deterministic directory order: sorted by feature code.
    let mut entries: Vec<(u64, ListRun)> = file.directory.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    for (code, run) in entries {
        w.write_u64(code)?;
        w.write_u64(run.start)?;
        w.write_u64(run.len)?;
    }
    w.write_all(&file.data)?;
    w.finish()
}

/// Reads a [`WordListFile`] from `path`, validating structure and checksum.
pub fn load_word_lists<P: AsRef<Path>>(path: P) -> Result<WordListFile, PersistError> {
    let raw = read_and_verify(path, WORD_MAGIC)?;
    let mut r = Cursor::new(&raw);
    let num_features = r.read_u64()? as usize;
    let total_entries = r.read_u64()? as usize;
    let data_len = r.read_u64()? as usize;

    let mut directory: FxHashMap<u64, ListRun> =
        ipm_corpus::hash::fx_map_with_capacity(num_features);
    let mut covered: u64 = 0;
    for _ in 0..num_features {
        let code = r.read_u64()?;
        let start = r.read_u64()?;
        let len = r.read_u64()?;
        if (start + len) as usize * ipm_index::wordlists::ENTRY_BYTES > data_len {
            return Err(PersistError::Corrupt("directory run exceeds data region"));
        }
        if directory.insert(code, ListRun { start, len }).is_some() {
            return Err(PersistError::Corrupt("duplicate feature in directory"));
        }
        covered += len;
    }
    if covered as usize != total_entries {
        return Err(PersistError::Corrupt(
            "directory entry counts disagree with header",
        ));
    }
    if total_entries * ipm_index::wordlists::ENTRY_BYTES != data_len {
        return Err(PersistError::Corrupt(
            "data region size disagrees with entry count",
        ));
    }
    let data = r.read_bytes(data_len)?;
    r.expect_end()?;
    Ok(WordListFile {
        data: Bytes::from(data),
        directory,
        total_entries,
    })
}

// ---------- phrase-list file -------------------------------------------------

/// Writes a [`PhraseListFile`] to `path`.
pub fn save_phrase_list<P: AsRef<Path>>(
    file: &PhraseListFile,
    path: P,
) -> Result<(), PersistError> {
    let mut w = HashingWriter::new(BufWriter::new(File::create(path)?));
    w.write_all(PHRASE_MAGIC)?;
    w.write_u64(file.num_phrases as u64)?;
    w.write_all(&file.data)?;
    w.finish()
}

/// Reads a [`PhraseListFile`] from `path`.
pub fn load_phrase_list<P: AsRef<Path>>(path: P) -> Result<PhraseListFile, PersistError> {
    let raw = read_and_verify(path, PHRASE_MAGIC)?;
    let mut r = Cursor::new(&raw);
    let num_phrases = r.read_u64()? as usize;
    let expect = num_phrases
        .checked_mul(PHRASE_ENTRY_BYTES)
        .ok_or(PersistError::Corrupt("phrase count overflows"))?;
    let data = r.read_bytes(expect)?;
    r.expect_end()?;
    Ok(PhraseListFile {
        data: Bytes::from(data),
        num_phrases,
    })
}

// ---------- plumbing ---------------------------------------------------------

/// Reads a whole file, checks magic and trailing CRC, and returns the body
/// (between magic and CRC).
fn read_and_verify<P: AsRef<Path>>(path: P, magic: &[u8; 4]) -> Result<Vec<u8>, PersistError> {
    let mut buf = Vec::new();
    BufReader::new(File::open(path)?).read_to_end(&mut buf)?;
    if buf.len() < 8 {
        return Err(PersistError::Corrupt("file shorter than magic + checksum"));
    }
    if &buf[..4] != magic {
        return Err(PersistError::BadMagic);
    }
    let body_end = buf.len() - 4;
    let expected = u32::from_le_bytes(buf[body_end..].try_into().unwrap());
    let actual = crc32(&buf[..body_end]);
    if expected != actual {
        return Err(PersistError::ChecksumMismatch { expected, actual });
    }
    Ok(buf[4..body_end].to_vec())
}

/// Write adapter accumulating the CRC over everything written.
struct HashingWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        Self {
            inner,
            crc: Crc32::new(),
        }
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.crc.update(bytes);
        self.inner.write_all(bytes)?;
        Ok(())
    }

    fn write_u64(&mut self, v: u64) -> Result<(), PersistError> {
        self.write_all(&v.to_le_bytes())
    }

    fn finish(mut self) -> Result<(), PersistError> {
        let crc = self.crc.finish();
        self.inner.write_all(&crc.to_le_bytes())?;
        self.inner.flush()?;
        Ok(())
    }
}

/// Bounds-checked reader over the verified body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn read_u64(&mut self) -> Result<u64, PersistError> {
        if self.pos + 8 > self.buf.len() {
            return Err(PersistError::Corrupt("truncated header"));
        }
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    fn read_bytes(&mut self, n: usize) -> Result<Vec<u8>, PersistError> {
        if self.pos + n > self.buf.len() {
            return Err(PersistError::Corrupt("truncated data region"));
        }
        let out = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(out)
    }

    fn expect_end(&self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            Err(PersistError::Corrupt("trailing garbage after data region"))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_corpus::Feature;
    use ipm_index::corpus_index::{CorpusIndex, IndexConfig};
    use ipm_index::mining::MiningConfig;
    use ipm_index::wordlists::{WordListConfig, WordPhraseLists};

    fn setup() -> (ipm_corpus::Corpus, CorpusIndex, WordPhraseLists) {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 3,
                    max_len: 3,
                    min_len: 1,
                },
            },
        );
        let lists = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        (c, index, lists)
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ipm_persist_{name}_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        d
    }

    #[test]
    fn word_lists_roundtrip() {
        let (_, _, lists) = setup();
        let file = WordListFile::build(&lists);
        let dir = tmpdir("wl");
        let path = dir.join("words.ipw");
        save_word_lists(&file, &path).unwrap();
        let loaded = load_word_lists(&path).unwrap();
        assert_eq!(loaded.total_entries(), file.total_entries());
        for feat in lists.features() {
            assert_eq!(loaded.list_len(*feat), file.list_len(*feat));
            for i in 0..file.list_len(*feat) {
                let a = file.read_entry(*feat, i).unwrap();
                let b = loaded.read_entry(*feat, i).unwrap();
                assert_eq!(a.phrase, b.phrase);
                assert_eq!(a.prob.to_bits(), b.prob.to_bits());
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn phrase_list_roundtrip() {
        let (c, index, _) = setup();
        let file = PhraseListFile::build(&c, &index.dict);
        let dir = tmpdir("pl");
        let path = dir.join("phrases.ipp");
        save_phrase_list(&file, &path).unwrap();
        let loaded = load_phrase_list(&path).unwrap();
        assert_eq!(loaded.num_phrases(), file.num_phrases());
        for (id, _, _) in index.dict.iter() {
            assert_eq!(loaded.read(id), file.read(id));
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = tmpdir("magic");
        let path = dir.join("bogus.ipw");
        std::fs::write(&path, b"NOPE-this-is-not-an-index-file-0000").unwrap();
        match load_word_lists(&path) {
            Err(PersistError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bit_flip_detected_by_checksum() {
        let (_, _, lists) = setup();
        let file = WordListFile::build(&lists);
        let dir = tmpdir("flip");
        let path = dir.join("words.ipw");
        save_word_lists(&file, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match load_word_lists(&path) {
            Err(PersistError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncation_detected() {
        let (c, index, _) = setup();
        let file = PhraseListFile::build(&c, &index.dict);
        let dir = tmpdir("trunc");
        let path = dir.join("phrases.ipp");
        save_phrase_list(&file, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        // Either the checksum or the structure check must fire — never a
        // panic.
        assert!(load_phrase_list(&path).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn phrase_magic_and_word_magic_are_not_interchangeable() {
        let (c, index, lists) = setup();
        let dir = tmpdir("cross");
        let wl = dir.join("w.ipw");
        save_word_lists(&WordListFile::build(&lists), &wl).unwrap();
        match load_phrase_list(&wl) {
            Err(PersistError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let pl = dir.join("p.ipp");
        save_phrase_list(&PhraseListFile::build(&c, &index.dict), &pl).unwrap();
        assert!(matches!(load_word_lists(&pl), Err(PersistError::BadMagic)));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn error_display_strings() {
        let e = PersistError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(PersistError::BadMagic.to_string().contains("index file"));
        let _ = Feature::Word(ipm_corpus::WordId(0));
    }
}
