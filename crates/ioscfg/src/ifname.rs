//! Interface names and types.
//!
//! Table 3 of the paper is a census over interface *types* — the leading
//! alphabetic part of the interface name (`Serial1/0.5` → `Serial`). The
//! [`InterfaceType`] enum enumerates exactly the nineteen types found in the
//! paper's corpus, plus `Loopback` (ubiquitous in practice even though the
//! paper's table omits it) and a tolerant `Other` catch-all.

use std::fmt;
use std::str::FromStr;

/// The hardware/virtual type of an interface, per Table 3 of the paper.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // variants are self-describing interface kinds
pub enum InterfaceType {
    Serial,
    FastEthernet,
    Atm,
    Pos,
    Ethernet,
    Hssi,
    GigabitEthernet,
    TokenRing,
    Dialer,
    Bri,
    Tunnel,
    PortChannel,
    Async,
    Virtual,
    Channel,
    Cbr,
    Fddi,
    Multilink,
    Null,
    Loopback,
    /// Any type outside the known set; the name prefix is preserved.
    Other(String),
}

impl InterfaceType {
    /// The canonical IOS spelling of this type.
    pub fn as_str(&self) -> &str {
        match self {
            InterfaceType::Serial => "Serial",
            InterfaceType::FastEthernet => "FastEthernet",
            InterfaceType::Atm => "ATM",
            InterfaceType::Pos => "POS",
            InterfaceType::Ethernet => "Ethernet",
            InterfaceType::Hssi => "Hssi",
            InterfaceType::GigabitEthernet => "GigabitEthernet",
            InterfaceType::TokenRing => "TokenRing",
            InterfaceType::Dialer => "Dialer",
            InterfaceType::Bri => "BRI",
            InterfaceType::Tunnel => "Tunnel",
            InterfaceType::PortChannel => "Port-channel",
            InterfaceType::Async => "Async",
            InterfaceType::Virtual => "Virtual-Template",
            InterfaceType::Channel => "Channel",
            InterfaceType::Cbr => "CBR",
            InterfaceType::Fddi => "Fddi",
            InterfaceType::Multilink => "Multilink",
            InterfaceType::Null => "Null",
            InterfaceType::Loopback => "Loopback",
            InterfaceType::Other(s) => s,
        }
    }

    /// The label used in the paper's Table 3 for this type.
    pub fn census_label(&self) -> &str {
        match self {
            InterfaceType::PortChannel => "Port",
            InterfaceType::Virtual => "Virtual",
            other => other.as_str(),
        }
    }

    /// Parses the alphabetic prefix of an interface name (case-insensitive,
    /// accepting common IOS abbreviations).
    pub fn from_prefix(prefix: &str) -> InterfaceType {
        let lower = prefix.to_ascii_lowercase();
        match lower.as_str() {
            "serial" | "se" => InterfaceType::Serial,
            "fastethernet" | "fa" => InterfaceType::FastEthernet,
            "atm" => InterfaceType::Atm,
            "pos" => InterfaceType::Pos,
            "ethernet" | "eth" | "et" => InterfaceType::Ethernet,
            "hssi" | "hs" => InterfaceType::Hssi,
            "gigabitethernet" | "gi" | "gige" => InterfaceType::GigabitEthernet,
            "tokenring" | "to" | "token" => InterfaceType::TokenRing,
            "dialer" | "di" => InterfaceType::Dialer,
            "bri" => InterfaceType::Bri,
            "tunnel" | "tu" => InterfaceType::Tunnel,
            "port-channel" | "po" => InterfaceType::PortChannel,
            "async" | "as" => InterfaceType::Async,
            "virtual-template" | "virtual-access" | "virtual" | "vi" => InterfaceType::Virtual,
            "channel" | "ch" => InterfaceType::Channel,
            "cbr" => InterfaceType::Cbr,
            "fddi" | "fd" => InterfaceType::Fddi,
            "multilink" | "mu" => InterfaceType::Multilink,
            "null" | "nu" => InterfaceType::Null,
            "loopback" | "lo" => InterfaceType::Loopback,
            _ => InterfaceType::Other(prefix.to_string()),
        }
    }

    /// All known (non-`Other`) types, in the order of the paper's Table 3
    /// (ascending count order as printed there), `Loopback` last.
    pub fn all_known() -> Vec<InterfaceType> {
        vec![
            InterfaceType::Null,
            InterfaceType::Multilink,
            InterfaceType::Fddi,
            InterfaceType::Cbr,
            InterfaceType::Channel,
            InterfaceType::Virtual,
            InterfaceType::Async,
            InterfaceType::PortChannel,
            InterfaceType::Tunnel,
            InterfaceType::Bri,
            InterfaceType::Dialer,
            InterfaceType::TokenRing,
            InterfaceType::GigabitEthernet,
            InterfaceType::Hssi,
            InterfaceType::Ethernet,
            InterfaceType::Pos,
            InterfaceType::Atm,
            InterfaceType::FastEthernet,
            InterfaceType::Serial,
            InterfaceType::Loopback,
        ]
    }
}

impl fmt::Display for InterfaceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A full interface name: type plus unit designator
/// (e.g. `Serial1/0.5` = [`InterfaceType::Serial`] + `"1/0.5"`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InterfaceName {
    /// The interface's hardware/virtual type.
    pub ty: InterfaceType,
    /// The unit designator: slot/port/subinterface text after the type.
    pub unit: String,
}

impl InterfaceName {
    /// Builds a name from parts.
    pub fn new(ty: InterfaceType, unit: impl Into<String>) -> InterfaceName {
        InterfaceName { ty, unit: unit.into() }
    }

    /// The parent interface of a subinterface (`Serial1/0.5` → `Serial1/0`),
    /// or `None` if this is not a subinterface.
    pub fn parent(&self) -> Option<InterfaceName> {
        let (parent, _) = self.unit.rsplit_once('.')?;
        Some(InterfaceName { ty: self.ty.clone(), unit: parent.to_string() })
    }
}

impl fmt::Display for InterfaceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.ty, self.unit)
    }
}

/// Error for unparseable interface names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseInterfaceNameError(String);

impl fmt::Display for ParseInterfaceNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid interface name: {:?}", self.0)
    }
}

impl std::error::Error for ParseInterfaceNameError {}

impl FromStr for InterfaceName {
    type Err = ParseInterfaceNameError;

    fn from_str(s: &str) -> Result<InterfaceName, ParseInterfaceNameError> {
        // The type is the longest leading run of letters and interior
        // hyphens (Port-channel, Virtual-Template); the unit is the rest.
        let split = s
            .char_indices()
            .find(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .unwrap_or(s.len());
        let (prefix, unit) = s.split_at(split);
        let prefix = prefix.trim_end_matches('-');
        if prefix.is_empty() {
            return Err(ParseInterfaceNameError(s.to_string()));
        }
        Ok(InterfaceName {
            ty: InterfaceType::from_prefix(prefix),
            unit: unit.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure2_names() {
        let e: InterfaceName = "Ethernet0".parse().unwrap();
        assert_eq!(e.ty, InterfaceType::Ethernet);
        assert_eq!(e.unit, "0");
        let s: InterfaceName = "Serial1/0.5".parse().unwrap();
        assert_eq!(s.ty, InterfaceType::Serial);
        assert_eq!(s.unit, "1/0.5");
        assert_eq!(s.parent().unwrap().to_string(), "Serial1/0");
        let h: InterfaceName = "Hssi2/0".parse().unwrap();
        assert_eq!(h.ty, InterfaceType::Hssi);
        assert!(h.parent().is_none());
    }

    #[test]
    fn display_roundtrip() {
        for name in ["Serial1/0.5", "FastEthernet0/1", "POS3/0", "Port-channel1", "Null0"] {
            let parsed: InterfaceName = name.parse().unwrap();
            assert_eq!(parsed.to_string(), name, "roundtrip of {name}");
        }
    }

    #[test]
    fn unknown_types_preserved() {
        let x: InterfaceName = "Vlan100".parse().unwrap();
        assert_eq!(x.ty, InterfaceType::Other("Vlan".into()));
        assert_eq!(x.to_string(), "Vlan100");
    }

    #[test]
    fn census_labels_match_table3() {
        assert_eq!(InterfaceType::PortChannel.census_label(), "Port");
        assert_eq!(InterfaceType::Virtual.census_label(), "Virtual");
        assert_eq!(InterfaceType::Pos.census_label(), "POS");
        assert_eq!(InterfaceType::all_known().len(), 20);
    }

    #[test]
    fn abbreviations() {
        assert_eq!(InterfaceType::from_prefix("Gi"), InterfaceType::GigabitEthernet);
        assert_eq!(InterfaceType::from_prefix("fa"), InterfaceType::FastEthernet);
        assert_eq!(InterfaceType::from_prefix("po"), InterfaceType::PortChannel);
    }
}
