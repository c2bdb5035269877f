#include "circuit/circuit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/matrix.hpp"
#include "sim/statevector.hpp"

namespace phoenix {
namespace {

TEST(Gate, TwoQubitClassification) {
  EXPECT_TRUE(Gate::cnot(0, 1).is_two_qubit());
  EXPECT_TRUE(Gate::cz(0, 1).is_two_qubit());
  EXPECT_TRUE(Gate::swap(0, 1).is_two_qubit());
  EXPECT_FALSE(Gate::h(0).is_two_qubit());
  EXPECT_FALSE(Gate::rz(0, 0.5).is_two_qubit());
}

TEST(Gate, InverseTable) {
  EXPECT_EQ(Gate::s(1).inverse().kind, GateKind::Sdg);
  EXPECT_EQ(Gate::tdg(1).inverse().kind, GateKind::T);
  EXPECT_EQ(Gate::sqrt_x(0).inverse().kind, GateKind::SqrtXdg);
  EXPECT_DOUBLE_EQ(Gate::rx(0, 0.7).inverse().param, -0.7);
  EXPECT_EQ(Gate::cnot(0, 1).inverse().kind, GateKind::Cnot);
}

TEST(Gate, InverseOfDetectsPairs) {
  EXPECT_TRUE(Gate::h(0).is_inverse_of(Gate::h(0)));
  EXPECT_TRUE(Gate::s(0).is_inverse_of(Gate::sdg(0)));
  EXPECT_TRUE(Gate::rz(0, 0.5).is_inverse_of(Gate::rz(0, -0.5)));
  EXPECT_FALSE(Gate::rz(0, 0.5).is_inverse_of(Gate::rz(0, 0.5)));
  EXPECT_FALSE(Gate::h(0).is_inverse_of(Gate::h(1)));
  // CZ and SWAP are symmetric in their qubits.
  EXPECT_TRUE(Gate::cz(0, 1).is_inverse_of(Gate::cz(1, 0)));
  EXPECT_TRUE(Gate::swap(2, 1).is_inverse_of(Gate::swap(1, 2)));
  EXPECT_FALSE(Gate::cnot(0, 1).is_inverse_of(Gate::cnot(1, 0)));
}

TEST(Gate, Su4InverseReversesChildren) {
  const Gate g = Gate::su4(0, 1, {Gate::h(0), Gate::cnot(0, 1), Gate::s(1)});
  const Gate inv = g.inverse();
  ASSERT_EQ(inv.sub.size(), 3u);
  EXPECT_EQ(inv.sub[0].kind, GateKind::Sdg);
  EXPECT_EQ(inv.sub[1].kind, GateKind::Cnot);
  EXPECT_EQ(inv.sub[2].kind, GateKind::H);
}

TEST(Circuit, AppendValidation) {
  Circuit c(2);
  EXPECT_THROW(c.append(Gate::h(2)), std::out_of_range);
  EXPECT_THROW(c.append(Gate::cnot(0, 0)), std::invalid_argument);
  EXPECT_THROW(c.append(Gate::cnot(0, 5)), std::out_of_range);
}

TEST(Circuit, DepthCountsParallelGatesOnce) {
  Circuit c(4);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::cnot(2, 3));  // parallel
  c.append(Gate::cnot(1, 2));  // sequential
  EXPECT_EQ(c.depth_2q(), 2u);
  EXPECT_EQ(c.count_2q(), 3u);
}

TEST(Circuit, OneQubitGatesFreeInDepth2q) {
  Circuit c(2);
  for (int i = 0; i < 10; ++i) c.append(Gate::h(0));
  c.append(Gate::cnot(0, 1));
  EXPECT_EQ(c.depth_2q(), 1u);
  EXPECT_EQ(c.depth(), 11u);
  EXPECT_EQ(c.count_1q(), 10u);
}

TEST(Circuit, InverseReversesAndInverts) {
  Circuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::rz(1, 0.4));
  Circuit whole = c;
  whole.append(c.inverse());
  EXPECT_TRUE(circuit_unitary(whole).approx_equal(
      Matrix::identity(4), 1e-12));
}

TEST(Circuit, SupportListsTouchedQubits) {
  Circuit c(5);
  c.append(Gate::h(1));
  c.append(Gate::cnot(3, 4));
  EXPECT_EQ(c.support(), (std::vector<std::size_t>{1, 3, 4}));
}

TEST(Circuit, TwoQubitLayersGreedyLeftAligned) {
  Circuit c(4);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::cnot(2, 3));
  c.append(Gate::cnot(1, 2));
  const auto layers = c.two_qubit_layers();
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[0].size(), 2u);
  EXPECT_EQ(layers[1].size(), 1u);
}

TEST(Circuit, FlattenedExpandsSu4) {
  Circuit c(2);
  c.append(Gate::su4(0, 1, {Gate::h(0), Gate::cnot(0, 1)}));
  const Circuit f = c.flattened();
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.count(GateKind::Su4), 0u);
}

TEST(Circuit, DropTrivialGates) {
  Circuit c(1);
  c.append(Gate(GateKind::I, 0));
  c.append(Gate::rz(0, 1e-15));
  c.append(Gate::rz(0, 0.5));
  c.drop_trivial_gates();
  EXPECT_EQ(c.size(), 1u);
}

TEST(Circuit, PrependPutsGatesFirst) {
  Circuit a(2), b(2);
  a.append(Gate::h(0));
  b.append(Gate::x(1));
  a.prepend(b);
  EXPECT_EQ(a.gate(0).kind, GateKind::X);
}

TEST(Qasm, RoundTripPreservesUnitary) {
  Rng rng(77);
  Circuit c(3);
  c.append(Gate::h(0));
  c.append(Gate::rz(1, -0.75));
  c.append(Gate::cnot(0, 2));
  c.append(Gate::sdg(2));
  c.append(Gate::swap(1, 2));
  c.append(Gate::rx(0, 2.25));
  c.append(Gate::cz(0, 1));
  const Circuit parsed = circuit_from_qasm(c.to_qasm());
  EXPECT_EQ(parsed.size(), c.size());
  EXPECT_TRUE(circuit_unitary(parsed).approx_equal(circuit_unitary(c), 1e-9));
}

TEST(Qasm, ParsesPiExpressions) {
  const Circuit c = circuit_from_qasm(
      "OPENQASM 2.0;\nqreg q[1];\nrz(pi/2) q[0];\nrx(-pi) q[0];\n"
      "ry(0.5*pi) q[0];\n");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c.gate(0).param, M_PI / 2, 1e-12);
  EXPECT_NEAR(c.gate(1).param, -M_PI, 1e-12);
  EXPECT_NEAR(c.gate(2).param, M_PI / 2, 1e-12);
}

TEST(Qasm, IgnoresCommentsAndBarriers) {
  const Circuit c = circuit_from_qasm(
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
      "// a comment\nbarrier q[0];\ncx q[0],q[1];\n");
  EXPECT_EQ(c.size(), 1u);
}

TEST(Qasm, ParsesScientificNotationAngles) {
  const Circuit c = circuit_from_qasm(
      "OPENQASM 2.0;\nqreg q[1];\nrz(1e-3) q[0];\nrx(2.5E+2) q[0];\n"
      "ry(-1.5e2) q[0];\nrz(1.25e0*pi) q[0];\n");
  ASSERT_EQ(c.size(), 4u);
  EXPECT_NEAR(c.gate(0).param, 1e-3, 1e-15);
  EXPECT_NEAR(c.gate(1).param, 250.0, 1e-12);
  EXPECT_NEAR(c.gate(2).param, -150.0, 1e-12);
  EXPECT_NEAR(c.gate(3).param, 1.25 * M_PI, 1e-12);
}

TEST(Qasm, RejectsMalformedAngleExpressions) {
  // Every malformed expression must surface as a structured phoenix::Error,
  // never a raw std::invalid_argument/std::out_of_range from std::stod.
  const char* bad[] = {
      "qreg q[1];\nrz(pi*) q[0];\n",      // dangling operator
      "qreg q[1];\nrz(*3) q[0];\n",       // leading operator
      "qreg q[1];\nrz(3**4) q[0];\n",     // doubled operator
      "qreg q[1];\nrz(2 3) q[0];\n",      // juxtaposed operands
      "qreg q[1];\nrz(2-3) q[0];\n",      // infix +/- unsupported
      "qreg q[1];\nrz(1e999) q[0];\n",    // overflowing literal
      "qreg q[1];\nrz(banana) q[0];\n",   // not a literal at all
      "qreg q[1];\nrz( ) q[0];\n",        // empty expression
      "qreg q[1];\nrz(1/0) q[0];\n",      // non-finite result
      "qreg q[1];\nrz(1e) q[0];\n",       // truncated exponent
  };
  for (const char* text : bad) {
    try {
      circuit_from_qasm(text);
      FAIL() << "expected phoenix::Error for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.stage(), Stage::Parse) << text;
      EXPECT_EQ(e.line(), 2u) << text;
      EXPECT_TRUE(e.has_column()) << text;
    } catch (const std::exception& e) {
      FAIL() << "raw exception " << e.what() << " for: " << text;
    }
  }
}

TEST(Qasm, AngleErrorCarriesUsefulColumn) {
  // "rz(pi*) q[0];" — the dangling '*' sits at 1-based column 6.
  try {
    circuit_from_qasm("qreg q[3];\nrz(pi*) q[0];\n");
    FAIL() << "expected phoenix::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 6u);
    EXPECT_NE(std::string(e.what()).find("dangling operator"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("col=6"), std::string::npos);
  }
}

TEST(Qasm, RejectsMalformedInput) {
  EXPECT_THROW(circuit_from_qasm("qreg q[2];\nfoo q[0];\n"),
               std::runtime_error);
  EXPECT_THROW(circuit_from_qasm("cx q[0],q[1];\n"), std::runtime_error);
  EXPECT_THROW(circuit_from_qasm("qreg q[2];\ncx q[0];\n"),
               std::runtime_error);
  EXPECT_THROW(circuit_from_qasm("qreg q[2];\nh q[0]\n"), std::runtime_error);
  EXPECT_THROW(circuit_from_qasm("qreg q[2];\nrz q[0];\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace phoenix
