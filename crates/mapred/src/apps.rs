//! The paper's MapReduce applications: WordCount (WC) and Grep.

use crate::engine::MapReduceApp;

/// WordCount: emit `(word, 1)` for every word; reduce by sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCount;

impl MapReduceApp for WordCount {
    fn name(&self) -> &'static str {
        "WordCount"
    }

    fn map(&self, comment: &[u32], emit: &mut Vec<(u32, u64)>) {
        for &w in comment {
            emit.push((w, 1));
        }
    }

    fn reduce(&self, acc: u64, value: u64) -> u64 {
        acc + value
    }

    /// Counting is associative: per-map-task combining applies.
    fn combinable(&self) -> bool {
        true
    }
}

/// Grep: emit `(pattern, 1)` for every comment containing the pattern
/// word; the reduced output is the match count (Phoenix's grep reports
/// matching lines; the count is the aggregate we validate).
#[derive(Debug, Clone, Copy)]
pub struct Grep {
    pub pattern: u32,
}

impl MapReduceApp for Grep {
    fn name(&self) -> &'static str {
        "Grep"
    }

    fn map(&self, comment: &[u32], emit: &mut Vec<(u32, u64)>) {
        if comment.contains(&self.pattern) {
            emit.push((self.pattern, 1));
        }
    }

    fn reduce(&self, acc: u64, value: u64) -> u64 {
        acc + value
    }

    /// Grep's output is the matching lines themselves: every emitted pair
    /// drags the whole comment through the shuffle.
    fn payload_words(&self, comment: &[u32]) -> u32 {
        comment.len() as u32
    }
}

/// Host-memory WordCount oracle: `(word, count)` for every word that
/// occurs, by ascending word id. Word ids are dense `1..=vocab_size`, so
/// the counts are a table indexed by word.
pub fn wordcount_oracle(corpus: &crate::textgen::Corpus) -> Vec<(u32, u64)> {
    let top = corpus.words.iter().max().map_or(0, |&w| w as usize);
    let mut counts = vec![0u64; top + 1];
    for c in corpus.iter_comments() {
        for &w in c {
            counts[w as usize] += 1;
        }
    }
    (0..=top as u32)
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Host-memory Grep oracle: number of comments containing `pattern`.
pub fn grep_oracle(corpus: &crate::textgen::Corpus, pattern: u32) -> u64 {
    corpus
        .iter_comments()
        .filter(|c| c.contains(&pattern))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textgen::Corpus;

    #[test]
    fn wordcount_map_emits_every_word() {
        let mut emitted = Vec::new();
        WordCount.map(&[3, 5, 3], &mut emitted);
        assert_eq!(emitted, vec![(3, 1), (5, 1), (3, 1)]);
        assert_eq!(WordCount.reduce(2, 1), 3);
    }

    #[test]
    fn grep_map_emits_once_per_matching_comment() {
        let g = Grep { pattern: 7 };
        let mut emitted = Vec::new();
        g.map(&[7, 7, 7], &mut emitted);
        g.map(&[1, 2, 3], &mut emitted);
        g.map(&[1, 7], &mut emitted);
        assert_eq!(emitted, vec![(7, 1), (7, 1)]);
    }

    /// `wordcount_oracle` as it was written over a hashed map, kept as the
    /// reference the dense count must equal.
    fn wordcount_hashed(corpus: &Corpus) -> Vec<(u32, u64)> {
        let mut counts = std::collections::HashMap::new();
        for c in corpus.iter_comments() {
            for &w in c {
                *counts.entry(w).or_insert(0u64) += 1;
            }
        }
        let mut out: Vec<(u32, u64)> = counts.into_iter().collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    #[test]
    fn wordcount_oracle_matches_the_hash_map_reference() {
        for (comments, vocab, seed) in [(300, 50, 5), (2_000, 5_000, 1), (1, 2, 9), (40, 10_000, 3)]
        {
            let corpus = Corpus::generate(comments, vocab, seed);
            assert_eq!(
                wordcount_oracle(&corpus),
                wordcount_hashed(&corpus),
                "{comments} comments, {vocab} words, seed {seed}"
            );
        }
        let empty = Corpus {
            words: vec![],
            comments: 0,
            vocab_size: 2,
        };
        assert_eq!(wordcount_oracle(&empty), vec![]);
    }

    #[test]
    fn oracles_are_consistent() {
        let corpus = Corpus::generate(300, 50, 5);
        let wc = wordcount_oracle(&corpus);
        let total: u64 = wc.iter().map(|&(_, c)| c).sum();
        let words = corpus.words.iter().filter(|&&w| w != 0).count() as u64;
        assert_eq!(total, words, "wordcount covers every word");
        // Grep count bounded by comment count; the rank-1 word appears in
        // nearly all comments.
        let hits = grep_oracle(&corpus, 1);
        assert!(hits > 0);
        assert!(hits <= corpus.comments as u64);
    }
}

/// Histogram: distribution of comment lengths (Phoenix's histogram app
/// shape — small fixed key domain, count aggregation).
#[derive(Debug, Clone, Copy, Default)]
pub struct LengthHistogram;

impl MapReduceApp for LengthHistogram {
    fn name(&self) -> &'static str {
        "LengthHistogram"
    }

    fn map(&self, comment: &[u32], emit: &mut Vec<(u32, u64)>) {
        emit.push((comment.len() as u32, 1));
    }

    fn reduce(&self, acc: u64, value: u64) -> u64 {
        acc + value
    }

    fn combinable(&self) -> bool {
        true
    }
}

/// MaxOccurrence: for each word, the longest comment it appears in —
/// exercises a non-additive (max) reduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxCommentLength;

impl MapReduceApp for MaxCommentLength {
    fn name(&self) -> &'static str {
        "MaxCommentLength"
    }

    fn map(&self, comment: &[u32], emit: &mut Vec<(u32, u64)>) {
        let len = comment.len() as u64;
        // One pair per distinct word in the comment.
        let mut seen: Vec<u32> = comment.to_vec();
        seen.sort_unstable();
        seen.dedup();
        for w in seen {
            emit.push((w, len));
        }
    }

    fn reduce(&self, acc: u64, value: u64) -> u64 {
        acc.max(value)
    }

    fn combinable(&self) -> bool {
        true
    }
}

/// Host-memory histogram oracle.
pub fn histogram_oracle(corpus: &crate::textgen::Corpus) -> Vec<(u32, u64)> {
    let mut counts = std::collections::HashMap::new();
    for c in corpus.iter_comments() {
        *counts.entry(c.len() as u32).or_insert(0u64) += 1;
    }
    let mut out: Vec<(u32, u64)> = counts.into_iter().collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

/// Host-memory max-comment-length oracle.
pub fn max_len_oracle(corpus: &crate::textgen::Corpus) -> Vec<(u32, u64)> {
    let mut maxes = std::collections::HashMap::new();
    for c in corpus.iter_comments() {
        let len = c.len() as u64;
        let mut seen: Vec<u32> = c.to_vec();
        seen.sort_unstable();
        seen.dedup();
        for w in seen {
            let e = maxes.entry(w).or_insert(0u64);
            *e = (*e).max(len);
        }
    }
    let mut out: Vec<(u32, u64)> = maxes.into_iter().collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}
