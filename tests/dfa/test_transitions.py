"""Tests for STV algebra: the §3.1 parsing-context reconstruction."""

from hypothesis import given, strategies as st

from repro.reference.dfa.transitions import compose, identity_vector, \
    transition_vector


class TestCompose:
    def test_identity(self):
        assert compose(identity_vector(4), (3, 2, 1, 0)) == (3, 2, 1, 0)
        assert compose((3, 2, 1, 0), identity_vector(4)) == (3, 2, 1, 0)

    @given(st.data())
    def test_matches_sequential_simulation(self, data):
        """∀ split points: stv(whole) == stv(left) ∘ stv(right)."""
        from repro.dfa.csv import rfc4180_dfa
        dfa = rfc4180_dfa()
        payload = data.draw(st.binary(max_size=40))
        cut = data.draw(st.integers(min_value=0, max_value=len(payload)))
        whole = transition_vector(dfa, payload)
        left = transition_vector(dfa, payload[:cut])
        right = transition_vector(dfa, payload[cut:])
        assert compose(left, right) == whole


class TestTransitionVectorSemantics:
    def test_entry_i_is_end_state_from_start_i(self, csv_dfa):
        chunk = b'9,"Bookcas'
        vector = transition_vector(csv_dfa, chunk)
        for start in range(csv_dfa.num_states):
            end, _ = csv_dfa.simulate(chunk, start_state=start)
            assert vector[start] == end

    def test_figure3_style_quote_chunk(self, csv_dfa):
        # A chunk consisting of a single quote: EOR->ENC, ENC->ESC,
        # FLD->INV, EOF->ENC, ESC->ENC, INV->INV.
        names = csv_dfa.state_names
        vector = transition_vector(csv_dfa, b'"')
        mapped = [names[s] for s in vector]
        assert mapped == ["ENC", "ESC", "INV", "ENC", "ENC", "INV"]
