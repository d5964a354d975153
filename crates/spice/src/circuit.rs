//! Netlist container.

use crate::{Element, SpiceError, Waveform};
use sram_device::FinFet;
use sram_units::{Current, Voltage};
use std::collections::HashMap;

/// Handle to a circuit node.
///
/// `NodeId`s are only meaningful for the [`Circuit`] that created them;
/// node 0 is always ground ([`Circuit::GROUND`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Handle to an element within a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) struct NamedElement {
    pub(crate) name: String,
    pub(crate) element: Element,
}

/// A netlist: named nodes plus elements.
///
/// # Examples
///
/// An NFET pulling a capacitive load low:
///
/// ```
/// use sram_device::{DeviceLibrary, FinFet, VtFlavor};
/// use sram_spice::{Circuit, Waveform};
/// use sram_units::Voltage;
///
/// let lib = DeviceLibrary::sevennm();
/// let mut ckt = Circuit::new();
/// let gate = ckt.node("g");
/// let out = ckt.node("out");
/// ckt.vsource("Vg", gate, Circuit::GROUND, Waveform::dc(Voltage::from_volts(0.45)));
/// ckt.capacitor("Cload", out, Circuit::GROUND, 1e-15);
/// ckt.fet(
///     "MN1",
///     gate,
///     out,
///     Circuit::GROUND,
///     FinFet::new(lib.nfet(VtFlavor::Lvt).clone(), 1),
/// );
/// assert_eq!(ckt.node_count(), 3); // ground + g + out
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, usize>,
    pub(crate) elements: Vec<NamedElement>,
    /// Indices (into `elements`) of voltage sources, in branch order.
    pub(crate) vsource_elements: Vec<usize>,
    vsource_index: HashMap<String, usize>,
}

impl Circuit {
    /// The ground node, shared by every circuit.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        let mut node_index = HashMap::new();
        node_index.insert("0".to_owned(), 0);
        Self {
            node_names: vec!["0".to_owned()],
            node_index,
            elements: Vec::new(),
            vsource_elements: Vec::new(),
            vsource_index: HashMap::new(),
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The name `"0"` always refers to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&idx) = self.node_index.get(name) {
            return NodeId(idx);
        }
        let idx = self.node_names.len();
        self.node_names.push(name.to_owned());
        self.node_index.insert(name.to_owned(), idx);
        NodeId(idx)
    }

    /// Total node count including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of MNA unknowns: non-ground nodes plus one branch current
    /// per voltage source.
    #[must_use]
    pub fn unknown_count(&self) -> usize {
        self.node_count() - 1 + self.vsource_elements.len()
    }

    fn push(&mut self, name: &str, element: Element) -> ElementId {
        let id = ElementId(self.elements.len());
        if let Element::VoltageSource { .. } = element {
            self.vsource_index
                .insert(name.to_owned(), self.vsource_elements.len());
            self.vsource_elements.push(self.elements.len());
        }
        self.elements.push(NamedElement {
            name: name.to_owned(),
            element,
        });
        id
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) -> ElementId {
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistance must be positive and finite"
        );
        self.push(name, Element::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is negative or non-finite.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) -> ElementId {
        assert!(
            farads >= 0.0 && farads.is_finite(),
            "capacitance must be non-negative and finite"
        );
        self.push(name, Element::Capacitor { a, b, farads })
    }

    /// Adds an independent voltage source.
    pub fn vsource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: Waveform,
    ) -> ElementId {
        self.push(name, Element::VoltageSource { pos, neg, waveform })
    }

    /// Adds an independent current source pushing current from `from` into
    /// `to`.
    pub fn isource(&mut self, name: &str, from: NodeId, to: NodeId, amps: Current) -> ElementId {
        self.push(name, Element::CurrentSource { from, to, amps })
    }

    /// Adds a FinFET.
    pub fn fet(
        &mut self,
        name: &str,
        gate: NodeId,
        drain: NodeId,
        source: NodeId,
        device: FinFet,
    ) -> ElementId {
        self.push(
            name,
            Element::Fet {
                gate,
                drain,
                source,
                device,
            },
        )
    }

    /// Replaces the waveform of the named voltage source — the primitive
    /// behind DC sweeps and assist-voltage re-biasing.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownElement`] when no voltage source with
    /// this name exists.
    pub fn set_source_waveform(
        &mut self,
        name: &str,
        waveform: Waveform,
    ) -> Result<(), SpiceError> {
        let &branch = self
            .vsource_index
            .get(name)
            .ok_or_else(|| SpiceError::UnknownElement(name.to_owned()))?;
        let idx = self.vsource_elements[branch];
        if let Element::VoltageSource { waveform: w, .. } = &mut self.elements[idx].element {
            *w = waveform;
        }
        Ok(())
    }

    /// Sets the named voltage source to a DC value.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownElement`] when no voltage source with
    /// this name exists.
    pub fn set_source_voltage(&mut self, name: &str, value: Voltage) -> Result<(), SpiceError> {
        self.set_source_waveform(name, Waveform::dc(value))
    }

    /// Branch index of the named voltage source (its position among the
    /// extra MNA unknowns).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownElement`] when the name is not a
    /// voltage source.
    pub fn source_branch(&self, name: &str) -> Result<usize, SpiceError> {
        self.vsource_index
            .get(name)
            .copied()
            .ok_or_else(|| SpiceError::UnknownElement(name.to_owned()))
    }

    /// Validates structural netlist invariants: every non-ground node must
    /// have at least two element terminals attached (no floating nodes),
    /// and every node referenced by an element must exist.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidNetlist`] describing the first
    /// violation found.
    pub fn validate(&self) -> Result<(), SpiceError> {
        let mut degree = vec![0usize; self.node_count()];
        let touch = |n: NodeId, degree: &mut Vec<usize>| -> Result<(), SpiceError> {
            if n.0 >= degree.len() {
                return Err(SpiceError::InvalidNetlist(
                    "element references a node from another circuit".to_owned(),
                ));
            }
            degree[n.0] += 1;
            Ok(())
        };
        for named in &self.elements {
            match &named.element {
                Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                    touch(*a, &mut degree)?;
                    touch(*b, &mut degree)?;
                }
                Element::VoltageSource { pos, neg, .. } => {
                    touch(*pos, &mut degree)?;
                    touch(*neg, &mut degree)?;
                }
                Element::CurrentSource { from, to, .. } => {
                    touch(*from, &mut degree)?;
                    touch(*to, &mut degree)?;
                }
                Element::Fet {
                    gate,
                    drain,
                    source,
                    ..
                } => {
                    touch(*gate, &mut degree)?;
                    touch(*drain, &mut degree)?;
                    touch(*source, &mut degree)?;
                }
            }
        }
        for (idx, deg) in degree.iter().enumerate().skip(1) {
            if *deg == 0 {
                return Err(SpiceError::InvalidNetlist(format!(
                    "node `{}` is not connected to any element",
                    self.node_names[idx]
                )));
            }
        }
        Ok(())
    }

    /// Iterates over `(name, element)` pairs.
    pub fn elements(&self) -> impl Iterator<Item = (&str, &Element)> {
        self.elements
            .iter()
            .map(|ne| (ne.name.as_str(), &ne.element))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_deduplicated_by_name() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a, a2);
        assert_eq!(ckt.node_count(), 2);
        assert_eq!(ckt.node("0"), Circuit::GROUND);
    }

    #[test]
    fn unknown_count_includes_branches() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.resistor("R1", a, Circuit::GROUND, 1.0);
        assert_eq!(ckt.unknown_count(), 2); // node a + branch of V1
    }

    #[test]
    fn set_source_voltage_round_trips() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.set_source_voltage("V1", Voltage::from_volts(0.45))
            .unwrap();
        let (_, e) = ckt.elements().next().unwrap();
        match e {
            Element::VoltageSource { waveform, .. } => assert_eq!(waveform.value_at(0.0), 0.45),
            _ => panic!("expected voltage source"),
        }
        assert!(matches!(
            ckt.set_source_voltage("nope", Voltage::ZERO),
            Err(SpiceError::UnknownElement(_))
        ));
    }

    #[test]
    fn validate_detects_floating_node() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let _floating = ckt.node("b");
        ckt.resistor("R1", a, Circuit::GROUND, 1.0);
        let err = ckt.validate().unwrap_err();
        assert!(matches!(err, SpiceError::InvalidNetlist(msg) if msg.contains("b")));
    }

    #[test]
    fn validate_accepts_connected_netlist() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.resistor("R1", a, Circuit::GROUND, 10.0);
        ckt.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "resistance")]
    fn zero_resistance_is_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R1", a, Circuit::GROUND, 0.0);
    }
}
