//! RFC document model: tag, title, numbered sections.

use std::fmt;

/// One numbered section of an RFC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section number as written (`"3.2.4"`).
    pub number: String,
    /// Section title.
    pub title: String,
    /// Body text (prose and/or ABNF).
    pub text: String,
}

/// An RFC document assembled from embedded text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RfcDocument {
    /// Lowercase tag (`"rfc7230"`).
    pub tag: String,
    /// Document title.
    pub title: String,
    /// Sections in document order.
    pub sections: Vec<Section>,
}

impl RfcDocument {
    /// Splits embedded text into sections on heading lines of the form
    /// `N.  Title` / `N.M.N.  Title` (two spaces after the dotted number,
    /// as RFCs format them).
    pub fn from_text(tag: &str, title: &str, text: &str) -> RfcDocument {
        let mut sections = Vec::new();
        let mut current: Option<Section> = None;
        for line in text.lines() {
            if let Some((number, heading)) = parse_heading(line) {
                if let Some(s) = current.take() {
                    sections.push(s);
                }
                current = Some(Section { number, title: heading, text: String::new() });
                continue;
            }
            match &mut current {
                Some(s) => {
                    s.text.push_str(line);
                    s.text.push('\n');
                }
                None => {
                    // Preamble before the first heading becomes section "0".
                    current = Some(Section {
                        number: "0".to_string(),
                        title: "Preamble".to_string(),
                        text: format!("{line}\n"),
                    });
                }
            }
        }
        if let Some(s) = current.take() {
            sections.push(s);
        }
        RfcDocument { tag: tag.to_ascii_lowercase(), title: title.to_string(), sections }
    }

    /// The concatenated text of all sections.
    pub fn full_text(&self) -> String {
        let mut out = String::new();
        for s in &self.sections {
            out.push_str(&s.text);
            out.push('\n');
        }
        out
    }

    /// Whitespace-separated word count over all section text.
    pub fn word_count(&self) -> usize {
        self.sections.iter().map(|s| s.text.split_whitespace().count()).sum()
    }

    /// Finds a section by its dotted number.
    pub fn section(&self, number: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.number == number)
    }
}

impl fmt::Display for RfcDocument {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {} sections)", self.tag.to_uppercase(), self.title, self.sections.len())
    }
}

/// Parses `3.2.4.  Field Parsing` into `("3.2.4", "Field Parsing")`.
fn parse_heading(line: &str) -> Option<(String, String)> {
    let bytes = line.as_bytes();
    if bytes.first().is_none_or(|b| !b.is_ascii_digit()) {
        return None;
    }
    let mut i = 0;
    // dotted number: DIGIT+ ( "." DIGIT+ )* "."
    loop {
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == start || i >= bytes.len() || bytes[i] != b'.' {
            return None;
        }
        i += 1; // consume '.'
        if i >= bytes.len() || !bytes[i].is_ascii_digit() {
            break;
        }
    }
    // Two spaces then the title.
    let rest = &line[i..];
    let title = rest.strip_prefix("  ")?;
    if title.trim().is_empty() {
        return None;
    }
    Some((line[..i - 1].to_string(), title.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heading_parsing() {
        assert_eq!(
            parse_heading("3.  Message Format"),
            Some(("3".into(), "Message Format".into()))
        );
        assert_eq!(
            parse_heading("3.2.4.  Field Parsing"),
            Some(("3.2.4".into(), "Field Parsing".into()))
        );
        assert_eq!(parse_heading("   indented"), None);
        assert_eq!(parse_heading("3. single space"), None);
        assert_eq!(parse_heading("400 (Bad Request)"), None);
        assert_eq!(parse_heading("1*DIGIT"), None);
    }

    #[test]
    fn document_splits_into_sections() {
        let text = "preamble line\n1.  Intro\nbody a\n2.1.  Deep\nbody b\nbody c\n";
        let d = RfcDocument::from_text("rfcX", "T", text);
        assert_eq!(d.sections.len(), 3);
        assert_eq!(d.sections[0].number, "0");
        assert_eq!(d.sections[1].number, "1");
        assert_eq!(d.sections[2].number, "2.1");
        assert_eq!(d.sections[2].text, "body b\nbody c\n");
        assert_eq!(d.section("2.1").unwrap().title, "Deep");
        assert_eq!(d.word_count(), 8);
        assert_eq!(d.tag, "rfcx");
    }

    #[test]
    fn full_text_concatenates() {
        let d = RfcDocument::from_text("r", "t", "1.  A\nx\n2.  B\ny\n");
        assert_eq!(d.full_text(), "x\n\ny\n\n");
    }
}
