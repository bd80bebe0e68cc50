package main

import (
	"reflect"
	"testing"

	"codecdb"
)

func TestParseWhere(t *testing.T) {
	cases := []struct {
		where string
		want  codecdb.Pred
	}{
		{"l_shipmode = MAIL", codecdb.Col("l_shipmode", codecdb.Eq, "MAIL")},
		{"l_shipmode = 'MAIL'", codecdb.Col("l_shipmode", codecdb.Eq, "MAIL")},
		{`l_shipmode = "MAIL"`, codecdb.Col("l_shipmode", codecdb.Eq, "MAIL")},
		{"o_orderpriority <> '1-URGENT'", codecdb.Col("o_orderpriority", codecdb.Ne, "1-URGENT")},
		// A quoted number stays a string: no numeric coercion.
		{"c_phone = '24'", codecdb.Col("c_phone", codecdb.Eq, "24")},
		{"l_comment = ''", codecdb.Col("l_comment", codecdb.Eq, "")},
		{"l_quantity < 24", codecdb.Col("l_quantity", codecdb.Lt, int64(24))},
		{"l_discount >= 0.05", codecdb.Col("l_discount", codecdb.Ge, 0.05)},
		{"l_shipmode in MAIL,SHIP", codecdb.In("l_shipmode", "MAIL", "SHIP")},
		{"l_shipmode in 'MAIL',\"SHIP\"", codecdb.In("l_shipmode", "MAIL", "SHIP")},
		{"l_quantity in 1,'2',3", codecdb.In("l_quantity", int64(1), "2", int64(3))},
		{"l_quantity < 24 or l_shipmode = 'AIR'", codecdb.AnyOf(
			codecdb.Col("l_quantity", codecdb.Lt, int64(24)),
			codecdb.Col("l_shipmode", codecdb.Eq, "AIR"))},
	}
	for _, c := range cases {
		got, err := parseWhere(c.where)
		if err != nil {
			t.Errorf("%s: %v", c.where, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.where, got, c.want)
		}
	}
	for _, bad := range []string{"l_shipmode = 'MAIL", `l_shipmode = MAIL"`, `l_shipmode = 'MAIL"`, "l_shipmode = '", "l_shipmode in 'MAIL,SHIP"} {
		if _, err := parseWhere(bad); err == nil {
			t.Errorf("%s: parsed, want an unmatched-quote error", bad)
		}
	}
}
